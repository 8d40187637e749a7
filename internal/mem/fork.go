package mem

import "errors"

// ErrSealed is returned for mutating operations on a sealed Space.
var ErrSealed = errors.New("mem: space is sealed")

// Seal freezes the Space: no further Map/Unmap/SetKey/WriteAt, no
// writable Slice views, and no lazy fault fills. (A read of a region that
// was reserved but never touched still backs it with zeros: that changes
// no byte anyone can observe.) A warm-pool template is
// sealed once its guest runtime is initialized, so every clone cut from
// it sees exactly the snapshot state and nothing can mutate the pages
// the clones share. Sealing is idempotent and cannot be undone.
func (s *Space) Seal() {
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
}

// Sealed reports whether the Space has been sealed.
func (s *Space) Sealed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealed
}

// Fork seals the Space and returns a copy-on-write clone of it. This is
// the snapshot/fork boot path: the clone shares the template's backing
// pages (the initialized guest runtime, loaded modules, filesystem
// buffers) at zero copy cost, and a region's pages are copied only when
// the clone first mutates them. Sharing is at region granularity —
// clones allocate their own heaps in fresh regions, so breaks are rare
// in practice. A region the template reserved but never touched has no
// pages to share: the clone inherits the reservation and backs its own
// zeros on first touch, which is not a copy-on-write break.
//
// Protection-key bindings and fault-present bitmaps are copied eagerly
// (they are small), so the clone can rebind fresh MPK keys without
// touching the template. The bump pointer and limit carry over: regions
// the clone maps afterwards never overlap the inherited layout.
func (s *Space) Fork() *Space {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true

	child := &Space{
		limit:    s.limit,
		mapped:   s.mapped,
		next:     s.next,
		released: s.released,
		regions:  make([]*region, len(s.regions)),
	}
	for i, r := range s.regions {
		c := &region{
			base:    r.base,
			size:    r.size,
			data:    r.data, // shared until first write
			cow:     r.data != nil,
			key:     r.key,
			keys:    append([]uint8(nil), r.keys...),
			lazy:    r.lazy,
			handler: r.handler,
		}
		if r.lazy {
			c.present = append([]bool(nil), r.present...)
		}
		child.regions[i] = c
	}
	s.forks++
	return child
}

// Forks reports how many copy-on-write clones were cut from this Space.
func (s *Space) Forks() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.forks
}

// CowBreaks reports how many inherited regions this Space has privatised
// by copying their backing pages.
func (s *Space) CowBreaks() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cowBreaks
}

// SharedBytes reports how many mapped bytes are still shared with the
// template this Space was forked from.
func (s *Space) SharedBytes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n uint64
	for _, r := range s.regions {
		if r.cow {
			n += r.size
		}
	}
	return n
}
