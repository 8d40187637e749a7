package trace

import (
	"encoding/json"
	"io"
	"time"
)

// Chrome trace_event export: the JSON Object Format with complete ("X")
// events, loadable in Perfetto and chrome://tracing. The tracer maps to
// one Chrome process (pid 1, named by its proc label); span lanes map to
// threads (tid); instant events map to "i"-phase markers.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`            // microseconds
	Dur  float64           `json:"dur,omitempty"` // microseconds
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the top-level JSON Object Format document.
type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// micros converts a duration to trace_event microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// buildChrome assembles the document for one tracer. The earliest
// span start becomes ts=0, keeping timestamps small and the run
// visually aligned from its origin.
func buildChrome(t *Tracer) chromeFile {
	doc := chromeFile{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{},
	}
	if !t.Enabled() {
		return doc
	}
	spans := t.Spans() // ordered by start
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	const pid = 1
	id := t.TraceID()
	doc.OtherData["trace_id"] = id
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name",
		Ph:   "M",
		PID:  pid,
		Args: map[string]string{"name": t.Proc()},
	})
	for _, sd := range spans {
		args := map[string]string{"trace_id": id}
		for k, v := range sd.Attrs {
			args[k] = v
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sd.Name,
			Cat:  sd.Cat,
			Ph:   "X",
			TS:   micros(sd.Start.Sub(epoch)),
			Dur:  micros(sd.Dur),
			PID:  pid,
			TID:  sd.Lane,
			Args: args,
		})
	}
	for _, ev := range t.Events() {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: ev.Name,
			Cat:  "event",
			Ph:   "i",
			S:    "p", // process-scoped instant
			TS:   micros(ev.When.Sub(epoch)),
			PID:  pid,
			Args: map[string]string{"trace_id": id, "span": ev.SpanName},
		})
	}
	return doc
}

// ExportChrome writes the tracer's trace_event JSON to w.
func ExportChrome(w io.Writer, t *Tracer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(buildChrome(t))
}

// ChromeJSON renders the trace_event document as a byte slice (the
// watchdog embeds it in an invocation response).
func ChromeJSON(t *Tracer) ([]byte, error) {
	return json.Marshal(buildChrome(t))
}
