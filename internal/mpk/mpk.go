// Package mpk is a software model of Intel Memory Protection Keys, the
// mechanism AlloyStack uses to split each WorkFlow Domain's single address
// space into a system partition (as-visor + as-libos) and a user partition
// (function code, heaps, stacks, trampolines). Hardware MPK tags each page
// with one of 16 keys and gates every access through the per-thread PKRU
// register; here the tag lives in internal/mem's page table and the PKRU
// is a per-execution-context word checked by the memory accessors.
//
// The model preserves the two properties the paper's design depends on:
//
//  1. Security: code running with a user PKRU cannot read or write pages
//     bound to the system key, so user functions cannot bypass as-std to
//     reach as-libos or as-visor state.
//  2. Cost profile: switching protection domains is a constant-time
//     register write performed by a trampoline, so enabling inter-function
//     isolation adds a measurable constant per crossing (the AS-IFI
//     overhead in the paper's Figure 11) rather than a per-byte cost.
package mpk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"alloystack/internal/mem"
)

// Key identifies one of the 16 hardware protection keys.
type Key uint8

// MaxKeys matches the x86 MPK hardware limit of 16 keys per address space.
const MaxKeys = 16

// Well-known keys in an AlloyStack WFD. KeyDefault tags pages that any
// context may touch (trampoline code, shared read-only data); KeySystem
// tags the system partition. Additional keys are allocated per function
// when inter-function isolation is enabled.
const (
	KeyDefault Key = 0
	KeySystem  Key = 1
)

// Errors returned by the key allocator and binder.
var (
	ErrNoKeys      = errors.New("mpk: all 16 protection keys allocated")
	ErrKeyNotAlloc = errors.New("mpk: key not allocated")
	ErrKeyReserved = errors.New("mpk: key is reserved")
)

// PKRU models the 32-bit protection-key rights register: two bits per
// key, AD (access disable, bit 2k) and WD (write disable, bit 2k+1).
type PKRU uint32

// AllowAll is a PKRU permitting reads and writes under every key.
const AllowAll PKRU = 0

// DenyAllButDefault returns a PKRU that permits key 0 only, the baseline
// rights of a user function before the visor grants it anything else.
func DenyAllButDefault() PKRU {
	var p PKRU
	for k := Key(1); k < MaxKeys; k++ {
		p = p.WithRights(k, false, false)
	}
	return p
}

// WithRights returns a copy of p with the rights for key set.
func (p PKRU) WithRights(key Key, read, write bool) PKRU {
	ad := uint32(1) << (2 * uint(key))
	wd := uint32(1) << (2*uint(key) + 1)
	v := uint32(p) &^ (ad | wd)
	if !read {
		v |= ad
	}
	if !write {
		v |= wd
	}
	return PKRU(v)
}

// Allows reports whether the register permits an access under key.
// An AD bit denies everything; a WD bit denies writes.
func (p PKRU) Allows(key uint8, write bool) bool {
	ad := uint32(p)>>(2*uint(key))&1 == 1
	if ad {
		return false
	}
	if write {
		wd := uint32(p)>>(2*uint(key)+1)&1 == 1
		return !wd
	}
	return true
}

// String renders the register as per-key rights for diagnostics.
func (p PKRU) String() string {
	s := "PKRU{"
	for k := Key(0); k < MaxKeys; k++ {
		switch {
		case p.Allows(uint8(k), true):
			s += "rw"
		case p.Allows(uint8(k), false):
			s += "r-"
		default:
			s += "--"
		}
		if k != MaxKeys-1 {
			s += " "
		}
	}
	return s + "}"
}

// Context is the per-execution-context analogue of a CPU's PKRU register.
// Every user-function goroutine and every LibOS entry runs under exactly
// one Context; the trampoline (internal/asstd) swaps the register value on
// each domain crossing. Context implements mem.Access.
type Context struct {
	pkru   atomic.Uint32
	writes atomic.Uint64 // register writes, for crossing-cost accounting
}

// Init gives c, a zero Context, its initial register value.
// Construction is not a crossing: it counts no write.
func (c *Context) Init(initial PKRU) {
	c.pkru.Store(uint32(initial))
}

// WritePKRU installs a new register value, as the wrpkru instruction
// does inside a trampoline. The write counter feeds the metrics that
// expose the AS-IFI crossing overhead.
func (c *Context) WritePKRU(v PKRU) {
	c.pkru.Store(uint32(v))
	c.writes.Add(1)
}

// ReadPKRU returns the current register value (rdpkru).
func (c *Context) ReadPKRU() PKRU {
	return PKRU(c.pkru.Load())
}

// Writes reports how many times the register has been written.
func (c *Context) Writes() uint64 {
	return c.writes.Load()
}

// Allows implements mem.Access against the current register value.
func (c *Context) Allows(key uint8, write bool) bool {
	return PKRU(c.pkru.Load()).Allows(key, write)
}

// Domain owns the protection keys of one address space: the analogue of
// the kernel's per-mm pkey allocation plus pkey_mprotect.
type Domain struct {
	space *mem.Space

	mu        sync.Mutex
	allocated [MaxKeys]bool
}

// NewDomain wraps space with a key allocator. Keys 0 (default) and 1
// (system) are pre-allocated, matching the visor's fixed partitioning.
func NewDomain(space *mem.Space) *Domain {
	d := &Domain{space: space}
	d.allocated[KeyDefault] = true
	d.allocated[KeySystem] = true
	return d
}

// Space returns the underlying address space.
func (d *Domain) Space() *mem.Space { return d.space }

// AllocKey hands out an unused protection key (pkey_alloc).
func (d *Domain) AllocKey() (Key, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k := Key(2); k < MaxKeys; k++ {
		if !d.allocated[k] {
			d.allocated[k] = true
			return k, nil
		}
	}
	return 0, ErrNoKeys
}

// FreeKey releases a key previously returned by AllocKey (pkey_free).
// The reserved default and system keys cannot be freed.
func (d *Domain) FreeKey(k Key) error {
	if k == KeyDefault || k == KeySystem {
		return fmt.Errorf("%w: %d", ErrKeyReserved, k)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(k) >= MaxKeys || !d.allocated[k] {
		return fmt.Errorf("%w: %d", ErrKeyNotAlloc, k)
	}
	d.allocated[k] = false
	return nil
}

// PkeyMprotect binds key to the pages of [base, base+length), as the
// pkey_mprotect(2) system call does for the paper's visor.
func (d *Domain) PkeyMprotect(base, length uint64, key Key) error {
	d.mu.Lock()
	ok := int(key) < MaxKeys && d.allocated[key]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrKeyNotAlloc, key)
	}
	return d.space.SetKey(base, length, uint8(key))
}

// AllocatedKeys reports how many keys are currently allocated.
func (d *Domain) AllocatedKeys() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, a := range d.allocated {
		if a {
			n++
		}
	}
	return n
}
