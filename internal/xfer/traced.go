package xfer

import (
	"alloystack/internal/asstd"
	"alloystack/internal/trace"
)

// WithTrace wraps a transport so every Send/Recv/SendBuffer records a
// CatXfer span under the function instance's span, attributed with the
// transport kind, slot and payload bytes — the per-edge view behind the
// Figure 11/14 copy accounting. A nil span returns the transport
// unwrapped, so disabled tracing pays nothing.
func WithTrace(t Transport, span *trace.Span) Transport {
	if span == nil || t == nil {
		return t
	}
	return &traced{inner: t, span: span}
}

type traced struct {
	inner Transport
	span  *trace.Span
}

// op opens one transfer span with the shared attributes.
func (t *traced) op(verb, slot string, bytes int64) *trace.Span {
	sp := t.span.Child(verb+":"+slot, trace.CatXfer)
	sp.SetAttr("kind", t.inner.Kind())
	if bytes >= 0 {
		sp.SetAttr("bytes", bytes)
	}
	return sp
}

func (t *traced) Kind() string { return t.inner.Kind() }

func (t *traced) Send(slot string, data []byte) error {
	sp := t.op("send", slot, int64(len(data)))
	defer sp.End()
	return t.inner.Send(slot, data)
}

func (t *traced) Alloc(slot string, size uint64) (*asstd.Buffer, error) {
	// Allocation is not a transfer; the span comes at SendBuffer.
	return t.inner.Alloc(slot, size)
}

func (t *traced) SendBuffer(b *asstd.Buffer) error {
	sp := t.op("send", b.Slot(), int64(b.Size()))
	defer sp.End()
	return t.inner.SendBuffer(b)
}

func (t *traced) Recv(slot string) ([]byte, func() error, error) {
	sp := t.op("recv", slot, -1)
	data, release, err := t.inner.Recv(slot)
	if err == nil {
		sp.SetAttr("bytes", int64(len(data)))
	}
	sp.End()
	return data, release, err
}
