package xfer

import (
	"sync"

	"alloystack/internal/asstd"
	"alloystack/internal/metrics"
)

// BufPool recycles freed AsBuffers: instead of mm.free_buffer followed
// by a fresh mm.alloc_buffer for the next transfer of the same size, a
// released buffer is parked here and re-registered under the next slot
// with mm.register_buffer — no allocation, no copy. Pooling is
// exact-size-class only: handing a consumer a buffer larger than its
// payload would corrupt Recv, which returns the full buffer extent.
//
// Safe for concurrent use by parallel stage instances; share one pool
// per workflow run (AsBuffers live in the WFD-wide heap, so a buffer
// freed by one function instance can serve any other).
type BufPool struct {
	mu     sync.Mutex
	bySize map[uint64][]*asstd.Buffer

	// perClass bounds how many buffers one size class parks before
	// overflow goes back to the heap.
	perClass int
}

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool {
	return &BufPool{bySize: make(map[uint64][]*asstd.Buffer), perClass: 32}
}

// get pops a parked buffer of exactly size bytes and re-registers it
// under slot; nil when the class is empty. A buffer whose re-register
// fails is dropped back to the heap rather than returned.
func (p *BufPool) get(slot string, size uint64) *asstd.Buffer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	list := p.bySize[size]
	if len(list) == 0 {
		p.mu.Unlock()
		return nil
	}
	b := list[len(list)-1]
	p.bySize[size] = list[:len(list)-1]
	p.mu.Unlock()
	if err := b.Forward(slot); err != nil {
		b.Free()
		return nil
	}
	return b
}

// put parks a consumed (but not freed) buffer for reuse; false when the
// size class is full and the caller should Free it instead.
func (p *BufPool) put(b *asstd.Buffer) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bySize[b.Size()]) >= p.perClass {
		return false
	}
	p.bySize[b.Size()] = append(p.bySize[b.Size()], b)
	return true
}

// Refpass is the AsBuffer reference-passing transport (§5): payloads
// move by registering a shared-heap buffer under a slot name, and
// reading is aliasing the same memory. The Alloc/SendBuffer/Recv path
// makes zero payload copies; Send (for callers that already hold a
// plain byte slice) makes exactly one.
type Refpass struct {
	env   *asstd.Env
	pool  *BufPool
	stats *metrics.TransportStats
}

// NewRefpass builds the transport. The pool is ignored under IFI:
// recycling a buffer across functions would carry a stale key binding.
func NewRefpass(env *asstd.Env, pool *BufPool, stats *metrics.TransportStats) *Refpass {
	if env.IFI() {
		pool = nil
	}
	return &Refpass{env: env, pool: pool, stats: stats}
}

// Kind names the transport.
func (t *Refpass) Kind() string { return KindRefpass }

// Alloc returns a slot-registered buffer for in-place production,
// recycled from the pool when a matching size class has one. A pooled
// buffer's view was taken by the env that made it, so this env adopts
// it.
func (t *Refpass) Alloc(slot string, size uint64) (*asstd.Buffer, error) {
	if b := t.pool.get(slot, size); b != nil {
		t.env.Adopt()
		t.stats.CountReuse(KindRefpass)
		return b, nil
	}
	return asstd.NewBuffer(t.env, slot, size)
}

// SendBuffer completes an Alloc-ed transfer. The buffer is already
// registered under its slot, so this only charges the counters: zero
// copies is the whole point.
func (t *Refpass) SendBuffer(b *asstd.Buffer) error {
	t.stats.CountOp(KindRefpass, int64(b.Size()), 0)
	return nil
}

// Send copies data into a fresh (or recycled) buffer under slot — the
// one-copy convenience path for callers without an Alloc-ed buffer.
func (t *Refpass) Send(slot string, data []byte) error {
	b, err := t.Alloc(slot, uint64(len(data)))
	if err != nil {
		return err
	}
	copy(b.Bytes(), data)
	t.stats.CountOp(KindRefpass, int64(len(data)), 1)
	return nil
}

// Recv acquires the buffer under slot; the returned bytes alias the
// sender's memory (zero copies) and the release closure recycles or
// frees the buffer.
func (t *Refpass) Recv(slot string) ([]byte, func() error, error) {
	b, err := asstd.FromSlot(t.env, slot)
	if err != nil {
		return nil, nil, err
	}
	t.stats.CountOp(KindRefpass, int64(b.Size()), 0)
	return b.Bytes(), func() error { return t.release(b) }, nil
}

func (t *Refpass) release(b *asstd.Buffer) error {
	if t.pool.put(b) {
		return nil
	}
	return b.Free()
}
