// Package blockdev provides the block devices that back the LibOS
// filesystems: an in-memory disk (the WFD's virtual disk image lives in
// RAM, as in the paper's deployment) and a shaping wrapper that injects
// configurable latency and bandwidth limits so experiments can model
// slower media.
package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// SectorSize is the addressing granularity of every device in this
// package. Filesystems may use larger clusters on top of it.
const SectorSize = 512

// Errors returned by device implementations.
var (
	ErrOutOfRange = errors.New("blockdev: access beyond device size")
	ErrClosed     = errors.New("blockdev: device closed")
)

// Device is a random-access block store.
type Device interface {
	// ReadAt fills p from the device starting at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at byte offset off.
	WriteAt(p []byte, off int64) error
	// Size returns the device capacity in bytes.
	Size() int64
	// Sync flushes any volatile state to stable storage.
	Sync() error
	// Close releases the device.
	Close() error
}

// MemDisk is a RAM-backed device.
type MemDisk struct {
	mu     sync.RWMutex
	data   []byte
	closed bool
}

// NewMemDisk allocates an in-memory device of size bytes (rounded up to a
// whole number of sectors).
func NewMemDisk(size int64) *MemDisk {
	if rem := size % SectorSize; rem != 0 {
		size += SectorSize - rem
	}
	return &MemDisk{data: make([]byte, size)}
}

func (d *MemDisk) check(n int, off int64) error {
	if d.closed {
		return ErrClosed
	}
	if off < 0 || off+int64(n) > int64(len(d.data)) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(n), len(d.data))
	}
	return nil
}

// ReadAt implements Device.
func (d *MemDisk) ReadAt(p []byte, off int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(len(p), off); err != nil {
		return err
	}
	copy(p, d.data[off:])
	return nil
}

// WriteAt implements Device.
func (d *MemDisk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(len(p), off); err != nil {
		return err
	}
	copy(d.data[off:], p)
	return nil
}

// Size implements Device.
func (d *MemDisk) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// Sync implements Device (RAM needs no flushing).
func (d *MemDisk) Sync() error { return nil }

// Close implements Device.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Shaped wraps a device with per-operation latency and a bandwidth cap,
// letting experiments model media slower than host RAM (e.g. the SSD in
// the paper's testbed) without changing filesystem code.
type Shaped struct {
	Inner Device
	// PerOpLatency is added to every read and write.
	PerOpLatency time.Duration //asvet:allow unreachable -- only the read cap is set outside tests (workloads.ShapeImage); blockdev's tests pin the latency and two-way caps
	// BytesPerSecond caps throughput in both directions; 0 = unlimited.
	BytesPerSecond int64 //asvet:allow unreachable -- see PerOpLatency
	// ReadBytesPerSecond caps reads, overriding BytesPerSecond for them
	// when non-zero.
	ReadBytesPerSecond int64

	// debt accumulates sub-millisecond delays so filesystems issuing
	// many small sector reads are throttled to the configured rate
	// without paying the scheduler's minimum-sleep quantum per call.
	mu   sync.Mutex
	debt time.Duration
}

func (s *Shaped) delay(n int, bps int64) {
	d := s.PerOpLatency
	if bps == 0 {
		bps = s.BytesPerSecond
	}
	if bps > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / bps)
	}
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.debt += d
	if s.debt < time.Millisecond {
		s.mu.Unlock()
		return
	}
	owed := s.debt
	s.debt = 0
	s.mu.Unlock()
	time.Sleep(owed)
}

// ReadAt implements Device.
func (s *Shaped) ReadAt(p []byte, off int64) error {
	s.delay(len(p), s.ReadBytesPerSecond)
	return s.Inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (s *Shaped) WriteAt(p []byte, off int64) error {
	s.delay(len(p), s.BytesPerSecond)
	return s.Inner.WriteAt(p, off)
}

// Size implements Device.
func (s *Shaped) Size() int64 { return s.Inner.Size() }

// Sync implements Device.
func (s *Shaped) Sync() error { return s.Inner.Sync() }

// Close implements Device.
func (s *Shaped) Close() error { return s.Inner.Close() }

// Counting wraps a device and tallies operations and bytes, feeding the
// Table 4 substrate-throughput measurements.
type Counting struct {
	Inner Device

	mu           sync.Mutex
	reads        int64
	writes       int64
	bytesRead    int64
	bytesWritten int64
}

// ReadAt implements Device.
func (c *Counting) ReadAt(p []byte, off int64) error {
	err := c.Inner.ReadAt(p, off)
	if err == nil {
		c.mu.Lock()
		c.reads++
		c.bytesRead += int64(len(p))
		c.mu.Unlock()
	}
	return err
}

// WriteAt implements Device.
func (c *Counting) WriteAt(p []byte, off int64) error {
	err := c.Inner.WriteAt(p, off)
	if err == nil {
		c.mu.Lock()
		c.writes++
		c.bytesWritten += int64(len(p))
		c.mu.Unlock()
	}
	return err
}

// Size implements Device.
func (c *Counting) Size() int64 { return c.Inner.Size() }

// Sync implements Device.
func (c *Counting) Sync() error { return c.Inner.Sync() }

// Close implements Device.
func (c *Counting) Close() error { return c.Inner.Close() }

// Stats returns (reads, writes, bytesRead, bytesWritten).
func (c *Counting) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes, c.bytesRead, c.bytesWritten
}
