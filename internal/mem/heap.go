package mem

import (
	"errors"
	"fmt"
	"sync"
)

// Heap is a first-fit free-list allocator over regions of a Space,
// modelled on the linked_list_allocator the paper uses as the WFD's
// default memory allocator: an address-ordered free list with block
// splitting on allocation and coalescing on free. Allocating a fresh heap
// per function makes crash recovery a matter of dropping the heap unit,
// which is the paper's fault-isolation story inside a WFD.
//
// A growable heap maps nothing until it is asked for memory: each chunk
// is mapped by the Alloc that no earlier chunk can satisfy and is sized
// to that request, so a WFD that allocates 64 KiB reserves (and, on first
// touch, backs) about 64 KiB, whatever its limit.
type Heap struct {
	space *Space
	size  uint64 // total mapped heap bytes across all chunks
	limit uint64 // maximum the heap may grow to

	mu        sync.Mutex
	free      *freeBlock        // address-ordered singly linked free list
	allocated map[uint64]uint64 // addr -> size, so Free needs no size
	inUse     uint64
	peak      uint64
	allocs    uint64
	frees     uint64
	lastChunk uint64
	chunks    []span // mapped chunk ranges, for invariant checking
}

// span is one mapped heap chunk.
type span struct{ base, size uint64 }

type freeBlock struct {
	addr uint64
	size uint64
	next *freeBlock
}

// Errors returned by heap operations.
var (
	ErrHeapFull    = errors.New("mem: heap exhausted")
	ErrBadFree     = errors.New("mem: free of unallocated address")
	ErrDoubleAlloc = errors.New("mem: internal allocator corruption")
)

// minAlign is the minimum alignment of every allocation.
const minAlign = 16

// minChunk is the smallest chunk a growable heap maps, so a function's
// small allocations share one mapping instead of taking a region each.
const minChunk = 16 * PageSize

// NewHeap builds an allocator allowed to grow to limit bytes. It maps
// nothing: chunks are mapped on demand by Alloc.
func NewHeap(space *Space, limit uint64) *Heap {
	return &Heap{
		space:     space,
		limit:     roundUp(limit),
		allocated: make(map[uint64]uint64),
	}
}

// grow maps an additional chunk able to hold need bytes: the request
// itself, or double the previous chunk when that is larger, so a heap of
// many small blocks needs few chunks. The limit caps it. Chunks are
// separated by an unmapped-by-the-heap guard page so free blocks from
// different chunks can never coalesce into a span that crosses a mapping
// boundary (buffers must stay contiguous for zero-copy views).
// Caller holds h.mu.
func (h *Heap) grow(need uint64) error {
	need = roundUp(need)
	chunk := min(max(need, minChunk, h.lastChunk*2), h.limit-h.size)
	if chunk < need {
		return ErrHeapFull
	}
	base, err := h.space.Map(chunk + PageSize) // +guard page
	if err != nil {
		return err
	}
	h.size += chunk
	h.lastChunk = chunk
	h.chunks = append(h.chunks, span{base, chunk})
	h.insertFree(base, chunk)
	return nil
}

// alignUp rounds addr up to the next multiple of align (a power of two or
// any positive value; we support both by using arithmetic rounding).
func alignUp(addr, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	rem := addr % align
	if rem == 0 {
		return addr
	}
	return addr + align - rem
}

// Alloc returns the address of a size-byte block aligned to align.
// First-fit: walks the address-ordered free list and carves the first
// block that can satisfy the request, splitting front and back remainders
// back onto the list.
func (h *Heap) Alloc(size, align uint64) (uint64, error) {
	if size == 0 {
		return 0, errors.New("mem: zero-size allocation")
	}
	if align < minAlign {
		align = minAlign
	}
	size = alignUp(size, minAlign)

	h.mu.Lock()
	defer h.mu.Unlock()

retry:
	var prev *freeBlock
	for b := h.free; b != nil; prev, b = b, b.next {
		start := alignUp(b.addr, align)
		pad := start - b.addr
		if b.size < pad+size {
			continue
		}
		// Carve [start, start+size) out of b in place. What remains of b
		// cannot touch another free block (b did not), so the list stays
		// ordered and coalesced without a walk.
		tail := b.size - pad - size
		switch {
		case pad > 0 && tail > 0:
			b.size = pad
			b.next = &freeBlock{addr: start + size, size: tail, next: b.next}
		case pad > 0:
			b.size = pad
		case tail > 0:
			b.addr, b.size = start+size, tail
		case prev == nil:
			h.free = b.next
		default:
			prev.next = b.next
		}
		if _, dup := h.allocated[start]; dup {
			return 0, ErrDoubleAlloc
		}
		h.allocated[start] = size
		h.inUse += size
		h.allocs++
		if h.inUse > h.peak {
			h.peak = h.inUse
		}
		return start, nil
	}
	// No fit in the mapped chunks: grow toward the limit and retry.
	// The padding bound covers the worst-case alignment slack. A sealed
	// or released space refuses the mapping, and says so instead of
	// reading full.
	err := h.grow(size + align)
	if err == nil {
		goto retry
	}
	if errors.Is(err, ErrSealed) || errors.Is(err, ErrReleased) {
		return 0, err
	}
	return 0, fmt.Errorf("%w: want %d bytes align %d (in use %d of %d, limit %d)",
		ErrHeapFull, size, align, h.inUse, h.size, h.limit)
}

// Free returns the block at addr to the free list, coalescing with
// adjacent free blocks.
func (h *Heap) Free(addr uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	size, ok := h.allocated[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(h.allocated, addr)
	h.inUse -= size
	h.frees++
	h.insertFree(addr, size)
	return nil
}

// insertFree returns [addr, addr+size) to the address-ordered free list,
// growing a neighbouring free block where one is adjacent and linking a
// new block only where none is. Caller holds h.mu.
func (h *Heap) insertFree(addr, size uint64) {
	var prev *freeBlock
	next := h.free
	for next != nil && next.addr < addr {
		prev, next = next, next.next
	}
	joinsPrev := prev != nil && prev.addr+prev.size == addr
	joinsNext := next != nil && addr+size == next.addr
	switch {
	case joinsPrev && joinsNext:
		prev.size += size + next.size
		prev.next = next.next
	case joinsPrev:
		prev.size += size
	case joinsNext:
		next.addr, next.size = addr, next.size+size
	case prev == nil:
		h.free = &freeBlock{addr: addr, size: size, next: next}
	default:
		prev.next = &freeBlock{addr: addr, size: size, next: next}
	}
}

// SizeOf reports the size of the live allocation at addr.
func (h *Heap) SizeOf(addr uint64) (uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	size, ok := h.allocated[addr]
	return size, ok
}

// Size returns the bytes the heap has mapped so far, guard pages aside.
func (h *Heap) Size() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

// Space returns the address space the heap allocates from.
func (h *Heap) Space() *Space { return h.space }

// HeapStats is a snapshot of allocator counters.
type HeapStats struct {
	InUse      uint64
	Peak       uint64
	Allocs     uint64
	Frees      uint64
	FreeBlocks int
	LargestGap uint64
}

// Stats returns current allocator counters.
func (h *Heap) Stats() HeapStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HeapStats{InUse: h.inUse, Peak: h.peak, Allocs: h.allocs, Frees: h.frees}
	for b := h.free; b != nil; b = b.next {
		st.FreeBlocks++
		if b.size > st.LargestGap {
			st.LargestGap = b.size
		}
	}
	return st
}

// checkInvariants validates free-list ordering, non-overlap and
// accounting. Used by tests (including property-based tests).
//
//asvet:allow unreachable -- the allocator's invariant oracle, called by its tests after every step
func (h *Heap) checkInvariants() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	inChunk := func(addr, size uint64) bool {
		for _, c := range h.chunks {
			if addr >= c.base && addr+size <= c.base+c.size {
				return true
			}
		}
		return false
	}
	var freeTotal uint64
	for b := h.free; b != nil; b = b.next {
		if b.size == 0 {
			return fmt.Errorf("zero-size free block at %#x", b.addr)
		}
		if !inChunk(b.addr, b.size) {
			return fmt.Errorf("free block [%#x,%#x) outside heap chunks", b.addr, b.addr+b.size)
		}
		if b.next != nil {
			if b.addr+b.size > b.next.addr {
				return fmt.Errorf("free blocks overlap or unordered at %#x", b.addr)
			}
			if b.addr+b.size == b.next.addr {
				return fmt.Errorf("uncoalesced neighbours at %#x", b.addr)
			}
		}
		freeTotal += b.size
	}
	if freeTotal+h.inUse != h.size {
		return fmt.Errorf("accounting mismatch: free %d + inUse %d != size %d",
			freeTotal, h.inUse, h.size)
	}
	for addr, size := range h.allocated {
		if !inChunk(addr, size) {
			return fmt.Errorf("allocation [%#x,%#x) outside heap chunks", addr, addr+size)
		}
	}
	return nil
}
