// Package mem provides the simulated single address space that backs a
// WorkFlow Domain (WFD). The paper runs every function of a workflow, the
// LibOS, and the visor inside one process address space partitioned with
// Intel MPK; here the address space is modelled explicitly so that the
// protection-key layer (internal/mpk) can bind a key to every page and
// check each access, and so that the mmap_file_backend module can handle
// page faults in user space (the paper uses Linux userfaultfd).
//
// Addresses are abstract uint64 values. Memory is organised in regions
// (created by Map/MapAt) that are contiguous in the backing store, which
// lets higher layers obtain zero-copy views of buffers that live entirely
// inside one region — this is what makes reference passing between
// functions of a WFD a constant-time operation, the core of the paper's
// intermediate-data-transfer optimisation.
//
// Mapping reserves, touching backs: Map/MapAt/MapLazy claim an address
// range, bind its keys and charge it against the Space's limit, but a
// region's backing array is allocated by the first access that reaches
// it. A WFD therefore pays for the bytes it touches, not the bytes it
// maps.
//
// A Space that ends its life unforked and unescaped (see Escape) hands
// its private backing arrays to the recycled-array free list (Release),
// and draws later backing from that list, so a warm invoke loop backs
// its WFD heaps with the arrays the last WFD gave back.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the granularity of mapping, key binding and fault handling.
const PageSize = 4096

// Common errors returned by address-space operations.
var (
	ErrNoMemory      = errors.New("mem: out of memory")
	ErrBadAddress    = errors.New("mem: address not mapped")
	ErrOverlap       = errors.New("mem: mapping overlaps existing region")
	ErrUnaligned     = errors.New("mem: address or length not page aligned")
	ErrAccessDenied  = errors.New("mem: access denied by protection key")
	ErrFaultUnfilled = errors.New("mem: page fault handler did not fill page")
	ErrReleased      = errors.New("mem: space released")
)

// Access decides whether an execution context may touch memory tagged with
// a protection key. The zero contract: a nil Access allows everything
// (kernel/visor context). internal/mpk provides the real implementation.
type Access interface {
	// Allows reports whether pages bound to key may be read (write=false)
	// or written (write=true) by the current context.
	Allows(key uint8, write bool) bool
}

// FaultHandler fills a freshly-faulted page. addr is the page-aligned
// virtual address; data is the PageSize-long backing slice to fill. It is
// the analogue of a userfaultfd handler in the paper's mmap_file_backend
// module.
type FaultHandler func(addr uint64, data []byte) error

// region is a contiguous mapping inside a Space.
type region struct {
	base uint64
	size uint64

	// data is the backing array: nil while the region is only reserved,
	// a zeroed array private to this Space from the first access on (see
	// Space.backedView). Once set it is replaced only by a copy-on-write
	// break, so views handed out by Slice stay valid until Release.
	data []byte

	// key is the protection key of every page while keys is nil; the
	// first SetKey that covers only part of the region expands keys to
	// one entry per page.
	key  uint8
	keys []uint8

	// cow marks a region whose data array is still shared with the
	// template Space it was forked from; the first mutating access
	// privatises the array (see Space.backedView).
	cow bool

	// Lazy (fault-backed) regions start with no pages present.
	lazy    bool
	present []bool
	handler FaultHandler
}

func (r *region) end() uint64 { return r.base + r.size }

func (r *region) pageIndex(addr uint64) int {
	return int((addr - r.base) / PageSize)
}

// keyOf returns the protection key of page i.
func (r *region) keyOf(i int) uint8 {
	if r.keys == nil {
		return r.key
	}
	return r.keys[i]
}

// setKey binds key to the pages of [from, to), which lies inside r.
func (r *region) setKey(from, to uint64, key uint8) {
	if from == r.base && to == r.end() {
		r.key, r.keys = key, nil
		return
	}
	if r.keys == nil {
		if key == r.key {
			return
		}
		r.keys = make([]uint8, r.size/PageSize)
		for i := range r.keys {
			r.keys[i] = r.key
		}
	}
	for i, end := r.pageIndex(from), r.pageIndex(to); i < end; i++ {
		r.keys[i] = key
	}
}

// pages returns the indices of the first and last page of [addr, addr+n).
func (r *region) pages(addr, n uint64) (first, last int) {
	first = r.pageIndex(addr)
	if n <= 1 {
		return first, first
	}
	return first, r.pageIndex(addr + n - 1)
}

// denied returns the index of the first page in [first, last] whose key
// access does not allow, or -1.
func (r *region) denied(access Access, first, last int, write bool) int {
	if r.keys == nil { // one key covers the region
		if access.Allows(r.key, write) {
			return -1
		}
		return first
	}
	for i := first; i <= last; i++ {
		if !access.Allows(r.keys[i], write) {
			return i
		}
	}
	return -1
}

// missing reports whether any page in [first, last] of a lazy region has
// not been filled by the fault handler yet.
func (r *region) missing(first, last int) bool {
	for i := first; i <= last; i++ {
		if !r.present[i] {
			return true
		}
	}
	return false
}

// Space is a simulated virtual address space. All methods are safe for
// concurrent use; data copies happen outside the region-table lock so
// parallel functions of a workflow can stream through memory concurrently.
// Accesses that find their bytes ready take only the read lock; backing,
// copy-on-write breaks and fault fills share one write-locked slow path.
type Space struct {
	mu      sync.RWMutex
	regions []*region // sorted by base
	limit   uint64    // total bytes allowed to be mapped
	mapped  uint64
	next    uint64 // bump pointer for Map
	sealed  bool   // frozen template: no mutation, only forking

	// released: Release ran, and every access fails with ErrReleased.
	released bool
	// escaped: some view may be held for good (Escape), so Release
	// leaves the arrays to the GC.
	escaped atomic.Bool

	faults    uint64 // page faults served (metrics)
	forks     uint64 // copy-on-write clones cut from this space
	cowBreaks uint64 // inherited regions privatised by a write
}

// NewSpace returns a Space allowed to map at most limit bytes. A limit of
// 0 means unconstrained.
func NewSpace(limit uint64) *Space {
	return &Space{limit: limit, next: PageSize} // keep page 0 unmapped
}

// roundUp rounds n up to the next multiple of PageSize.
func roundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}

// Map reserves a new region of at least length bytes and returns its base
// address. The region reads as zeros; its backing array is allocated by
// the first access.
func (s *Space) Map(length uint64) (uint64, error) {
	return s.mapRegion(0, length, false, nil)
}

// MapAt maps a region at a fixed page-aligned base address.
func (s *Space) MapAt(base, length uint64) error {
	if base%PageSize != 0 {
		return ErrUnaligned
	}
	_, err := s.mapRegion(base, length, false, nil)
	return err
}

// MapLazy reserves a fault-backed region: pages materialise on first
// access through handler. This is the substrate for mmap_file_backend.
// The handler runs with the Space locked and must not call back into it.
func (s *Space) MapLazy(length uint64, handler FaultHandler) (uint64, error) {
	if handler == nil {
		return 0, errors.New("mem: MapLazy requires a fault handler")
	}
	return s.mapRegion(0, length, true, handler)
}

func (s *Space) mapRegion(base, length uint64, lazy bool, h FaultHandler) (uint64, error) {
	if length == 0 {
		return 0, errors.New("mem: zero-length mapping")
	}
	length = roundUp(length)

	s.mu.Lock()
	defer s.mu.Unlock()

	if s.released {
		return 0, ErrReleased
	}
	if s.sealed {
		return 0, ErrSealed
	}
	if s.limit != 0 && s.mapped+length > s.limit {
		return 0, fmt.Errorf("%w: %d mapped, %d requested, limit %d",
			ErrNoMemory, s.mapped, length, s.limit)
	}
	if base == 0 {
		base = s.next
	}
	idx := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].base >= base
	})
	if idx > 0 && s.regions[idx-1].end() > base {
		return 0, fmt.Errorf("%w: [%#x,%#x)", ErrOverlap, base, base+length)
	}
	if idx < len(s.regions) && s.regions[idx].base < base+length {
		return 0, fmt.Errorf("%w: [%#x,%#x)", ErrOverlap, base, base+length)
	}

	r := &region{base: base, size: length, lazy: lazy}
	if lazy {
		r.present = make([]bool, length/PageSize)
		r.handler = h
	}

	s.regions = append(s.regions, nil)
	copy(s.regions[idx+1:], s.regions[idx:])
	s.regions[idx] = r
	s.mapped += length
	if base+length > s.next {
		s.next = base + length
	}
	return base, nil
}

// Unmap removes the region based at base. The whole region is removed;
// partial unmapping is not supported (the LibOS never needs it).
func (s *Space) Unmap(base uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return ErrSealed
	}
	idx := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].base >= base
	})
	if idx == len(s.regions) || s.regions[idx].base != base {
		return fmt.Errorf("%w: %#x", ErrBadAddress, base)
	}
	s.mapped -= s.regions[idx].size
	s.regions = append(s.regions[:idx], s.regions[idx+1:]...)
	return nil
}

// find returns the region containing addr, or nil.
// Caller must hold at least the read lock.
func (s *Space) find(addr uint64) *region {
	idx := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].end() > addr
	})
	if idx == len(s.regions) || s.regions[idx].base > addr {
		return nil
	}
	return s.regions[idx]
}

// SetKey binds protection key to every page of [base, base+length).
// Both base and length must be page aligned: MPK binds at page level.
func (s *Space) SetKey(base, length uint64, key uint8) error {
	if base%PageSize != 0 || length%PageSize != 0 {
		return ErrUnaligned
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return ErrSealed
	}
	for addr := base; addr < base+length; {
		r := s.find(addr)
		if r == nil {
			return fmt.Errorf("%w: %#x", ErrBadAddress, addr)
		}
		stop := base + length
		if re := r.end(); re < stop {
			stop = re
		}
		r.setKey(addr, stop, key)
		addr = stop
	}
	return nil
}

// KeyAt reports the protection key bound to the page containing addr.
func (s *Space) KeyAt(addr uint64) (uint8, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.find(addr)
	if r == nil {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	return r.keyOf(r.pageIndex(addr)), nil
}

// check validates an access to [addr, addr+n) — seal, mapping, bounds and
// the protection key of every page — and reports whether the region's
// backing array can serve it as it stands: backed, not shared with a
// fork template the access would mutate, and with no lazy page left to
// fill. Caller holds at least the read lock.
func (s *Space) check(access Access, addr, n uint64, write bool) (r *region, ready bool, err error) {
	if s.released {
		return nil, false, ErrReleased
	}
	if write && s.sealed {
		return nil, false, ErrSealed
	}
	r = s.find(addr)
	if r == nil {
		return nil, false, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	if addr+n > r.end() {
		return nil, false, fmt.Errorf("%w: [%#x,%#x) crosses region end %#x",
			ErrBadAddress, addr, addr+n, r.end())
	}
	first, last := r.pages(addr, n)
	if access != nil {
		if i := r.denied(access, first, last, write); i >= 0 {
			return nil, false, fmt.Errorf("%w: page %#x key %d write=%v",
				ErrAccessDenied, r.base+uint64(i)*PageSize, r.keyOf(i), write)
		}
	}
	ready = r.data != nil && !(r.cow && write) && !(r.lazy && r.missing(first, last))
	return r, ready, nil
}

// view returns the zero-copy window [addr, addr+n) of a backed region.
func (r *region) view(addr, n uint64) []byte {
	off := addr - r.base
	return r.data[off : off+n : off+n]
}

// backedView is the one slow path of every access, taken under the write
// lock when check found the backing array unable to serve it: it backs a
// region that was only reserved with a zeroed array, privatises an
// array still shared with a fork template before the access mutates it,
// and runs the fault handler on lazy pages that were never filled. The
// checks are repeated because the region table may have changed since the
// caller's read-locked look, and another accessor may have got here first.
func (s *Space) backedView(access Access, addr, n uint64, write bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ready, err := s.check(access, addr, n, write)
	if err != nil {
		return nil, err
	}
	if ready {
		return r.view(addr, n), nil
	}
	first, last := r.pages(addr, n)
	fill := r.lazy && r.missing(first, last)
	if fill && s.sealed {
		return nil, fmt.Errorf("%w: fault fill in [%#x,%#x)", ErrSealed, addr, addr+n)
	}
	switch {
	case r.data == nil:
		r.data = s.array(r.size)
	case r.cow && (write || fill):
		private := s.array(uint64(len(r.data)))
		copy(private, r.data)
		r.data = private
		r.cow = false
		s.cowBreaks++
	}
	if fill {
		for i := first; i <= last; i++ {
			if r.present[i] {
				continue
			}
			off := uint64(i) * PageSize
			if err := r.handler(r.base+off, r.data[off:off+PageSize]); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFaultUnfilled, err)
			}
			r.present[i] = true
			s.faults++
		}
	}
	return r.view(addr, n), nil
}

// array returns an n-byte zeroed backing array: from the recycled-array
// free list while the Space is unescaped, so Release can give it back,
// and a fresh exact-size one otherwise, since an escaped Space's arrays
// are never given back and a class-sized one would only be larger (and
// a fresh one needs no clear). Caller holds the write lock.
func (s *Space) array(n uint64) []byte {
	if s.escaped.Load() {
		return make([]byte, n)
	}
	b := Take(int(n))
	clear(b)
	return b
}

// Escape records that a view returned by Slice may be held for as long
// as its holder likes (a native function body may keep an AsBuffer's
// bytes forever): from now on Release parks nothing, and backing arrays
// are exact-size allocations. Call it before taking such a view.
// Idempotent, and cannot be undone.
func (s *Space) Escape() {
	if !s.escaped.Load() {
		s.escaped.Store(true)
	}
}

// Release ends the Space. Every later access, Map included, fails with
// ErrReleased; none backs fresh zeros. When the Space was never forked
// and never escaped, the backing arrays that are its own (not still
// shared with a fork template) go to the recycled-array free list for
// the next Space or guest instance to take, so the caller must know that
// no view into the Space survives: a view reaches only its own tenant's
// bytes while its tenant runs. Idempotent.
func (s *Space) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	park := s.forks == 0 && !s.escaped.Load()
	for _, r := range s.regions {
		if park && !r.cow && r.data != nil {
			Park(r.data)
		}
		r.data = nil
	}
}

// ReadAt copies len(p) bytes at addr into p, subject to access checks.
func (s *Space) ReadAt(access Access, addr uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	v, err := s.Slice(access, addr, uint64(len(p)), false)
	if err != nil {
		return err
	}
	copy(p, v)
	return nil
}

// WriteAt copies p into memory at addr, subject to access checks.
func (s *Space) WriteAt(access Access, addr uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	v, err := s.Slice(access, addr, uint64(len(p)), true)
	if err != nil {
		return err
	}
	copy(v, p)
	return nil
}

// Slice returns a zero-copy view of [addr, addr+n). The range must lie in
// a single region. This is the load/store path of the paper's single
// address space: once a function holds a reference (the AsBuffer), reads
// and writes are plain memory operations with no copying.
func (s *Space) Slice(access Access, addr, n uint64, write bool) ([]byte, error) {
	s.mu.RLock()
	r, ready, err := s.check(access, addr, n, write)
	var v []byte
	if ready {
		v = r.view(addr, n)
	}
	s.mu.RUnlock()
	if ready || err != nil {
		return v, err
	}
	return s.backedView(access, addr, n, write)
}

// Mapped reports the number of bytes currently mapped.
func (s *Space) Mapped() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mapped
}

// Faults reports the number of page faults served by fault handlers.
func (s *Space) Faults() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.faults
}

// Regions reports the number of live mappings.
func (s *Space) Regions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.regions)
}
