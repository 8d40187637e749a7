package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk(64 * 1024)
	msg := []byte("sector payload")
	if err := d.WriteAt(msg, 1024); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := d.ReadAt(got, 1024); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestMemDiskSizeRoundsToSector(t *testing.T) {
	d := NewMemDisk(100)
	if d.Size() != SectorSize {
		t.Fatalf("Size = %d, want %d", d.Size(), SectorSize)
	}
}

func TestMemDiskBounds(t *testing.T) {
	d := NewMemDisk(1024)
	if err := d.WriteAt(make([]byte, 8), 1020); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadAt(make([]byte, 8), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: err = %v, want ErrOutOfRange", err)
	}
	// Exactly at the end is fine.
	if err := d.WriteAt(make([]byte, 8), 1016); err != nil {
		t.Fatalf("write at end: %v", err)
	}
}

func TestMemDiskClosed(t *testing.T) {
	d := NewMemDisk(1024)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: err = %v, want ErrClosed", err)
	}
}

func TestShapedAddsLatency(t *testing.T) {
	inner := NewMemDisk(8 * 1024)
	s := &Shaped{Inner: inner, PerOpLatency: 2 * time.Millisecond}
	start := time.Now()
	if err := s.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("shaped read took %v, want >= 2ms", elapsed)
	}
}

func TestShapedBandwidthCap(t *testing.T) {
	inner := NewMemDisk(1 << 20)
	s := &Shaped{Inner: inner, BytesPerSecond: 10 << 20} // 10 MB/s
	start := time.Now()
	if err := s.WriteAt(make([]byte, 256*1024), 0); err != nil {
		t.Fatal(err)
	}
	// 256 KiB at 10 MB/s ≈ 25 ms.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("capped write took %v, want >= 15ms", elapsed)
	}
}

func TestCountingStats(t *testing.T) {
	c := &Counting{Inner: NewMemDisk(8 * 1024)}
	c.WriteAt(make([]byte, 512), 0)
	c.WriteAt(make([]byte, 512), 512)
	c.ReadAt(make([]byte, 1024), 0)
	r, w, br, bw := c.Stats()
	if r != 1 || w != 2 || br != 1024 || bw != 1024 {
		t.Fatalf("stats = %d,%d,%d,%d; want 1,2,1024,1024", r, w, br, bw)
	}
	// Failed ops are not counted.
	c.ReadAt(make([]byte, 1), 1<<30)
	r, _, _, _ = c.Stats()
	if r != 1 {
		t.Fatalf("failed read counted: reads = %d", r)
	}
}
