package journal

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Segment persists one run's barrier payloads outside the WFD's address
// space so they survive a visor crash. It is one append-only file beside
// the journal, <id>.spill, of named frames (frame.go): one fsync per
// barrier (in Sync), not one per slot. A crash mid-Put leaves a torn
// final frame. Reading stops there, which is safe because the
// stage-commit record that would reference the torn slot was never
// fsync'd either, and the first Put cuts it off, as Resume does to the
// journal's. A Segment serves one run's barrier loop and is not safe for
// concurrent use.
type Segment struct {
	path   string
	noSync bool
	f      *os.File           // open for writing between a Put and the next Sync
	index  map[string]spillAt // slot -> its latest frame; nil until scanned
	end    int64              // offset past the last intact frame
}

// spillAt locates one payload inside the segment.
type spillAt struct {
	off  int64
	size int64
}

// Spill returns the spill segment for this run's barrier payloads.
func (r *Run) Spill() *Segment {
	return &Segment{path: filepath.Join(r.s.dir, r.id+".spill"), noSync: r.s.noSync}
}

// Put appends one slot's payload. It is durable only after the next
// Sync; a later Put of the same slot supersedes it.
func (s *Segment) Put(slot string, data []byte) error {
	if err := s.scan(); err != nil {
		return err
	}
	if s.f == nil {
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(s.end); err != nil {
			f.Close()
			return err
		}
		s.f = f
	}
	n, err := writeFrame(io.NewOffsetWriter(s.f, s.end), true, slot, data)
	if err != nil {
		return err
	}
	s.end += n
	s.index[slot] = spillAt{off: s.end - int64(len(data)), size: int64(len(data))}
	return nil
}

// Sync makes every payload Put so far durable. The barrier calls it
// once, before the stage-commit record: group commit for payloads.
func (s *Segment) Sync() error {
	if s.f == nil {
		return nil
	}
	// Close the handle at the barrier boundary: the next barrier
	// reopens it, and no descriptor outlives the run.
	var err error
	if !s.noSync {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Get reads a slot's payload back, verifying it against the journaled
// CRC32: a mismatch fails with ErrChecksum, and a slot outside the
// segment's intact prefix with ErrNoSpill.
func (s *Segment) Get(slot string, sum uint32) ([]byte, error) {
	if err := s.scan(); err != nil {
		return nil, err
	}
	at, ok := s.index[slot]
	if !ok {
		return nil, fmt.Errorf("%w: slot %q in %s", ErrNoSpill, slot, s.path)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, at.size)
	if _, err := f.ReadAt(data, at.off); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(data) != sum {
		return nil, fmt.Errorf("%w: slot %q", ErrChecksum, slot)
	}
	return data, nil
}

// scan indexes the segment's intact prefix once per handle: a fresh
// run finds no file, a resume finds the frames earlier runs wrote.
func (s *Segment) scan() error {
	if s.index != nil {
		return nil
	}
	index := make(map[string]spillAt)
	f, err := os.Open(s.path)
	if err == nil {
		defer f.Close()
		fr := &frameReader{r: bufio.NewReader(f), named: true}
		for slot, data, ok := fr.next(); ok; slot, data, ok = fr.next() {
			index[slot] = spillAt{off: fr.off - int64(len(data)), size: int64(len(data))}
		}
		s.end = fr.off
	} else if !os.IsNotExist(err) {
		return err
	}
	s.index = index
	return nil
}
