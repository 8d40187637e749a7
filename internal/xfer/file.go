package xfer

import (
	"fmt"
	"hash/fnv"
	"sync"

	"alloystack/internal/asstd"
	"alloystack/internal/mem"
	"alloystack/internal/metrics"
)

// Path maps a slot name onto an 8.3-safe spill path. The full 32-bit
// FNV-1a hash is encoded as eight hex digits — exactly the 8.3 name
// field — so no hash bits are discarded (the previous 28-bit masking
// quadrupled the collision odds and then overwrote silently).
func Path(slot string) string {
	h := fnv.New32a()
	h.Write([]byte(slot))
	return fmt.Sprintf("/%08X.DAT", h.Sum32())
}

// PathRegistry tracks which slot currently owns each spill path, so two
// distinct live slots hashing onto the same 8.3 file surface as
// ErrPathCollision instead of silently corrupting the file-mediated
// ablation. Share one registry per workflow run.
type PathRegistry struct {
	mu     sync.Mutex
	byPath map[string]string // path -> owning slot
}

// NewPathRegistry returns an empty registry.
func NewPathRegistry() *PathRegistry {
	return &PathRegistry{byPath: make(map[string]string)}
}

// Claim records slot as the owner of its spill path, failing when a
// different live slot already owns it.
func (r *PathRegistry) Claim(slot string) (string, error) {
	path := Path(slot)
	if r == nil {
		return path, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if owner, ok := r.byPath[path]; ok && owner != slot {
		return "", fmt.Errorf("%w: %q and %q both map to %s",
			ErrPathCollision, owner, slot, path)
	}
	r.byPath[path] = slot
	return path, nil
}

// Release returns slot's spill path to the free pool (the payload was
// consumed).
func (r *PathRegistry) Release(slot string) {
	if r == nil {
		return
	}
	path := Path(slot)
	r.mu.Lock()
	if r.byPath[path] == slot {
		delete(r.byPath, path)
	}
	r.mu.Unlock()
}

// File is the LibOS file-spill transport: the Figure 14 ablation path
// used when reference passing is disabled. Every payload is written to
// a fatfs/ramfs file by the producer and read back by the consumer —
// the double copy the paper's design eliminates.
type File struct {
	env   *asstd.Env
	paths *PathRegistry
	stats *metrics.TransportStats
}

// NewFile builds the transport; a nil registry gets a private one
// (collisions then go undetected across envs, so runs share one).
func NewFile(env *asstd.Env, paths *PathRegistry, stats *metrics.TransportStats) *File {
	if paths == nil {
		paths = NewPathRegistry()
	}
	return &File{env: env, paths: paths, stats: stats}
}

// Kind names the transport.
func (t *File) Kind() string { return KindFile }

// Send spills data to the slot's file (one copy out).
func (t *File) Send(slot string, data []byte) error {
	if err := asstd.MountFS(t.env); err != nil {
		return err
	}
	path, err := t.paths.Claim(slot)
	if err != nil {
		return err
	}
	if err := asstd.WriteFile(t.env, path, data); err != nil {
		return err
	}
	t.stats.CountOp(KindFile, int64(len(data)), 1)
	return nil
}

// Alloc stages production in an AsBuffer; SendBuffer spills it.
func (t *File) Alloc(slot string, size uint64) (*asstd.Buffer, error) {
	return asstd.NewBuffer(t.env, slot, size)
}

// SendBuffer spills an Alloc-ed buffer to its slot's file and releases
// the staging buffer.
func (t *File) SendBuffer(b *asstd.Buffer) error {
	if err := asstd.MountFS(t.env); err != nil {
		return err
	}
	path, err := t.paths.Claim(b.Slot())
	if err != nil {
		return err
	}
	if err := asstd.WriteFile(t.env, path, b.Bytes()); err != nil {
		return err
	}
	t.stats.CountOp(KindFile, int64(b.Size()), 1)
	return b.Free()
}

// Recv reads the payload back from the slot's file (one copy back) into
// a recycled array, which the release parks for the next Recv.
func (t *File) Recv(slot string) ([]byte, func() error, error) {
	if err := asstd.MountFS(t.env); err != nil {
		return nil, nil, err
	}
	data, err := asstd.ReadFileInto(t.env, Path(slot), mem.Take)
	if err != nil {
		mem.Park(data)
		return nil, nil, fmt.Errorf("%v (slot %q)", err, slot)
	}
	t.paths.Release(slot)
	t.stats.CountOp(KindFile, int64(len(data)), 1)
	return data[:len(data):len(data)], func() error { mem.Park(data); return nil }, nil
}
