package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// parentFrame encodes one frame byte by byte, independently of
// writeFrame: [len][CRC32][payload], after [name-len][name] when named.
func parentFrame(named bool, name string, payload []byte) []byte {
	var b []byte
	if named {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, checksum(payload))
	return append(b, payload...)
}

// Journals and spill segments written before the codec was shared read
// back unchanged.
func TestParentFramesReadBack(t *testing.T) {
	s := openStore(t)
	payload := []byte("payload")
	var journal []byte
	for _, rec := range []string{
		`{"seq":0,"kind":"run-admitted","run":"old","workflow":"wf","stage":0}`,
		`{"seq":1,"kind":"slot-spilled","run":"old","workflow":"wf","stage":0,"slot":"f0:0->f1:0","size":7,"sum":` +
			fmt.Sprint(checksum(payload)) + `}`,
		`{"seq":2,"kind":"stage-committed","run":"old","workflow":"wf","stage":0}`,
	} {
		journal = append(journal, parentFrame(false, "", []byte(rec))...)
	}
	if err := os.WriteFile(s.journalPath("old"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.dir+"/old.spill", parentFrame(true, "f0:0->f1:0", payload), 0o644); err != nil {
		t.Fatal(err)
	}
	run, st, err := s.Resume("old")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if st.Records != 3 || st.CommittedPrefix() != 1 || len(st.Spilled) != 1 {
		t.Fatalf("state = %+v", st)
	}
	got, err := run.Spill().Get("f0:0->f1:0", st.Spilled[0].Sum)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("spill get = %q, %v", got, err)
	}
}

// A torn spill tail is cut off before the next append, as Resume cuts
// the journal's, so a payload re-spilled after a crash mid-Put reads
// back from a later handle.
func TestTornSpillTailTruncatedOnNextPut(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("torn-spill", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	data := bytes.Repeat([]byte{0xA5}, 1000)
	first := run.Spill()
	if err := first.Put("a:0->b:0", data); err != nil {
		t.Fatal(err)
	}
	if err := first.Sync(); err != nil {
		t.Fatal(err)
	}
	path := s.dir + "/torn-spill.spill"
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-400); err != nil {
		t.Fatal(err)
	}

	second := run.Spill()
	if err := second.Put("a:0->b:0", data); err != nil {
		t.Fatal(err)
	}
	if err := second.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(parentFrame(true, "a:0->b:0", data))) {
		t.Fatalf("segment after re-spill: %v, %v; want one frame", fi.Size(), err)
	}
	got, err := run.Spill().Get("a:0->b:0", checksum(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after re-spill: %d bytes, %v", len(got), err)
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A length claim costs what the input holds: neither a journal header
// claiming the 64 MiB record cap nor a spill header claiming 4 GiB is
// allocated before its bytes arrive.
func TestFrameClaimCostsWhatItHolds(t *testing.T) {
	const budget = 1 << 20
	claim := binary.LittleEndian.AppendUint32(nil, maxRecord)
	claim = append(claim, 0, 0, 0, 0, '{')
	if n := allocated(func() {
		if recs, good := replay(bytes.NewReader(claim)); len(recs) != 0 || good != 0 {
			t.Errorf("replay of a torn claim = %d records, good %d", len(recs), good)
		}
	}); n > budget {
		t.Errorf("replay of a %d-byte journal allocated %d bytes", len(claim), n)
	}
	spill := append([]byte{1, 0, 0, 0, 'x'}, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 'y')
	if n := allocated(func() {
		if _, _, ok := (&frameReader{r: bufio.NewReader(bytes.NewReader(spill)), named: true}).next(); ok {
			t.Error("spill reader accepted a torn frame")
		}
	}); n > budget {
		t.Errorf("reading a %d-byte spill frame allocated %d bytes", len(spill), n)
	}
}

// FuzzJournalReplay feeds replay and buildState bytes they did not
// write. Replay must return records or stop cleanly, never past the
// input, and the prefix it vouches for must replay to the same records:
// that prefix is what Resume keeps. The seeds are in
// testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := replay(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside %d bytes", good, len(data))
		}
		again, good2 := replay(bytes.NewReader(data[:good]))
		if good2 != good || !reflect.DeepEqual(again, recs) {
			t.Fatalf("intact prefix replays to %d records (good %d), want %d (good %d)",
				len(again), good2, len(recs), good)
		}
		st, err := buildState("fuzz", recs)
		if err != nil {
			if len(recs) != 0 || !errors.Is(err, ErrNotFound) {
				t.Fatalf("buildState of %d records: %v", len(recs), err)
			}
			return
		}
		if sum := st.summary(good); sum.Records != len(recs) || sum.Committed > len(st.Committed) {
			t.Fatalf("summary %+v of %d records", sum, len(recs))
		}
	})
}
