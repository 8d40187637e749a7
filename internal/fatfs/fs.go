package fatfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"

	"alloystack/internal/blockdev"
)

// FS is a mounted FAT32 volume. The FAT lives in memory and is written
// back once per operation: an operation marks the FAT sectors it
// changes, and before it returns it writes each of them to every FAT
// copy, so the device is a consistent image between operations, as
// rust-fatfs keeps the allocation table hot while data goes to the block
// layer. File data moves in one device call per run of consecutive
// clusters. All methods are safe for concurrent use by the functions of
// a WFD; the LibOS serialises conflicting writes at a higher level but
// the filesystem itself must not corrupt metadata under concurrency, so
// a single mutex guards metadata.
type FS struct {
	dev blockdev.Device
	bpb *bpb

	mu       sync.Mutex
	fat      []uint32         // in-memory copy of FAT #0
	dirty    []uint64         // bitset of FAT sectors changed since flushFAT
	freeHint uint32           // next-free search start
	sector   [sectorSize]byte // flushFAT's encode buffer
	dirBuf   []byte           // readDirChain's buffer
}

// MkfsOptions configures Format. Every image uses the one geometry, so
// it has no fields.
type MkfsOptions struct{}

// entriesPerSector is the number of FAT entries one FAT sector holds.
const entriesPerSector = sectorSize / 4

func newFS(dev blockdev.Device, b *bpb) *FS {
	n := b.clusterCount() + 2
	return &FS{
		dev:      dev,
		bpb:      b,
		fat:      make([]uint32, n),
		dirty:    make([]uint64, (n+entriesPerSector*64-1)/(entriesPerSector*64)),
		freeHint: 3,
	}
}

// Format writes a fresh FAT32 layout onto dev and mounts it: 4 KiB
// clusters (8 sectors) and two FAT copies.
func Format(dev blockdev.Device, _ MkfsOptions) (*FS, error) {
	const spc, nfats = 8, 2
	totalSectors := uint32(dev.Size() / sectorSize)
	if totalSectors < 128 {
		return nil, fmt.Errorf("%w: device too small (%d sectors)", ErrBadImage, totalSectors)
	}

	// Solve for FAT size: each FAT sector maps 128 clusters.
	reserved := uint32(32)
	clusters := (totalSectors - reserved) / uint32(spc)
	fatSectors := (clusters + 2 + entriesPerSector - 1) / entriesPerSector // +2 for reserved entries

	b := &bpb{
		bytesPerSector:    sectorSize,
		sectorsPerCluster: uint8(spc),
		reservedSectors:   uint16(reserved),
		numFATs:           uint8(nfats),
		totalSectors:      totalSectors,
		sectorsPerFAT:     fatSectors,
		rootCluster:       2,
	}
	if err := dev.WriteAt(b.encode(), 0); err != nil {
		return nil, err
	}
	// Zero each FAT copy in one write.
	zero := make([]byte, fatSectors*sectorSize)
	for f := uint32(0); f < nfats; f++ {
		if err := dev.WriteAt(zero, int64(reserved+f*fatSectors)*sectorSize); err != nil {
			return nil, err
		}
	}

	fs := newFS(dev, b)
	// Entries 0 and 1 are reserved; root dir occupies cluster 2.
	fs.setFAT(0, 0x0FFFFFF8)
	fs.setFAT(1, fatEOC)
	fs.setFAT(2, fatEOC)
	if err := fs.zeroCluster(2); err != nil {
		return nil, err
	}
	return fs, fs.flushFAT()
}

// Mount reads an existing FAT32 layout from dev. A device whose boot
// sector is all zero is ErrBlank.
func Mount(dev blockdev.Device) (*FS, error) {
	boot := make([]byte, sectorSize)
	if err := dev.ReadAt(boot, 0); err != nil {
		return nil, err
	}
	b, err := decodeBPB(boot)
	if err != nil {
		if bytes.Count(boot, []byte{0}) == sectorSize {
			return nil, ErrBlank
		}
		return nil, err
	}
	if err := b.checkGeometry(dev.Size()); err != nil {
		return nil, err
	}
	fs := newFS(dev, b)
	// Load FAT #0.
	raw := make([]byte, int(b.sectorsPerFAT)*sectorSize)
	if err := dev.ReadAt(raw, int64(b.reservedSectors)*sectorSize); err != nil {
		return nil, err
	}
	for i := range fs.fat {
		fs.fat[i] = binary.LittleEndian.Uint32(raw[i*4:]) & fatEntryMask
	}
	return fs, nil
}

// ---- FAT management ----

// clusterOffset returns the device byte offset of a data cluster.
func (fs *FS) clusterOffset(cluster uint32) int64 {
	sector := int64(fs.bpb.firstDataSector()) + int64(cluster-2)*int64(fs.bpb.sectorsPerCluster)
	return sector * sectorSize
}

// setFAT sets one FAT entry in memory and marks its sector dirty.
// Caller holds fs.mu (or is in single-threaded setup).
func (fs *FS) setFAT(cluster, v uint32) {
	fs.fat[cluster] = v
	s := cluster / entriesPerSector
	fs.dirty[s/64] |= 1 << (s % 64)
}

// flushFAT writes every dirty FAT sector to every FAT copy.
// Caller holds fs.mu (or is in single-threaded setup).
func (fs *FS) flushFAT() error {
	for w, word := range fs.dirty {
		for ; word != 0; word &= word - 1 {
			s := uint32(w*64 + bits.TrailingZeros64(word))
			entries := fs.fat[s*entriesPerSector : min((s+1)*entriesPerSector, uint32(len(fs.fat)))]
			clear(fs.sector[:])
			for i, v := range entries {
				binary.LittleEndian.PutUint32(fs.sector[i*4:], v&fatEntryMask)
			}
			for f := uint32(0); f < uint32(fs.bpb.numFATs); f++ {
				off := int64(uint32(fs.bpb.reservedSectors)+f*fs.bpb.sectorsPerFAT+s) * sectorSize
				if err := fs.dev.WriteAt(fs.sector[:], off); err != nil {
					return err
				}
			}
			fs.dirty[w] &^= 1 << (s % 64)
		}
	}
	return nil
}

// unlockFlush ends a mutating operation: it writes the FAT back,
// reporting a flush failure unless the operation already failed, and
// releases fs.mu. Deferred as fs.unlockFlush(&err).
func (fs *FS) unlockFlush(err *error) {
	if ferr := fs.flushFAT(); *err == nil {
		*err = ferr
	}
	fs.mu.Unlock()
}

// allocCluster finds a free cluster, marks it end-of-chain and returns it.
// Caller holds fs.mu.
func (fs *FS) allocCluster() (uint32, error) {
	n := uint32(len(fs.fat))
	for i := uint32(0); i < n; i++ {
		c := fs.freeHint + i
		if c >= n {
			c = c - n + 2 // wrap, skipping reserved entries
			if c >= n {
				break
			}
		}
		if c < 2 {
			continue
		}
		if fs.fat[c] == fatFree {
			fs.setFAT(c, fatEOC)
			fs.freeHint = c + 1
			return c, nil
		}
	}
	return 0, ErrNoSpace
}

// freeChain releases every cluster in the chain starting at first.
// Caller holds fs.mu.
func (fs *FS) freeChain(first uint32) {
	for c := first; c >= 2 && c < uint32(len(fs.fat)) && fs.fat[c] != fatFree; {
		next := fs.fat[c]
		fs.setFAT(c, fatFree)
		if next >= fatEOC || next == fatBad {
			break
		}
		c = next
	}
}

// chain returns the list of clusters of the chain starting at first. A
// chain longer than the FAT must revisit a cluster, so the length bound
// is the cycle check. Caller holds fs.mu.
func (fs *FS) chain(first uint32) ([]uint32, error) {
	var out []uint32
	for c := first; c >= 2; {
		if c >= uint32(len(fs.fat)) || len(out) == len(fs.fat) {
			return nil, fmt.Errorf("%w: corrupt FAT chain at %d", ErrBadImage, c)
		}
		out = append(out, c)
		next := fs.fat[c]
		if next >= fatEOC {
			break
		}
		if next == fatFree || next == fatBad {
			return nil, fmt.Errorf("%w: chain hits free/bad cluster", ErrBadImage)
		}
		c = next
	}
	return out, nil
}

// extendChain appends a fresh cluster to the chain ending at last.
// Caller holds fs.mu.
func (fs *FS) extendChain(last uint32) (uint32, error) {
	c, err := fs.allocCluster()
	if err != nil {
		return 0, err
	}
	if last >= 2 {
		fs.setFAT(last, c)
	}
	return c, nil
}

// extents visits [off, off+n) of the file whose chain is clusters in
// runs of consecutive clusters, calling fn once per run with the run's
// device offset and the range [lo, hi) of the n bytes it covers. It
// returns the bytes visited before an error.
func (fs *FS) extents(clusters []uint32, off int64, n int, fn func(devOff int64, lo, hi int) error) (int, error) {
	cb := int64(fs.bpb.clusterBytes())
	end := off + int64(n)
	done := 0
	for done < n {
		pos := off + int64(done)
		idx := pos / cb
		if idx >= int64(len(clusters)) {
			return done, io.ErrUnexpectedEOF
		}
		last := idx
		for last+1 < int64(len(clusters)) && (last+1)*cb < end && clusters[last+1] == clusters[last]+1 {
			last++
		}
		hi := done + int(min((last+1)*cb, end)-pos)
		if err := fn(fs.clusterOffset(clusters[idx])+pos%cb, done, hi); err != nil {
			return done, err
		}
		done = hi
	}
	return done, nil
}

func (fs *FS) zeroCluster(cluster uint32) error {
	zero := make([]byte, fs.bpb.clusterBytes())
	return fs.dev.WriteAt(zero, fs.clusterOffset(cluster))
}

// FreeClusters reports the number of unallocated clusters.
func (fs *FS) FreeClusters() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for c := uint32(2); c < uint32(len(fs.fat)); c++ {
		if fs.fat[c] == fatFree {
			n++
		}
	}
	return n
}

// ClusterSize reports the filesystem's cluster size in bytes.
func (fs *FS) ClusterSize() int { return fs.bpb.clusterBytes() }

// ---- directory operations ----

// readDirChain loads the full byte contents of a directory chain into
// fs.dirBuf, which the next call reuses. Caller holds fs.mu.
func (fs *FS) readDirChain(first uint32) ([]byte, error) {
	clusters, err := fs.chain(first)
	if err != nil {
		return nil, err
	}
	n := len(clusters) * fs.bpb.clusterBytes()
	if cap(fs.dirBuf) < n {
		fs.dirBuf = make([]byte, n)
	}
	buf := fs.dirBuf[:n]
	_, err = fs.extents(clusters, 0, n, func(devOff int64, lo, hi int) error {
		return fs.dev.ReadAt(buf[lo:hi], devOff)
	})
	return buf, err
}

// writeDirEntry stores a 32-byte entry at offset within the directory
// whose chain starts at dirCluster, extending the chain if needed.
// Caller holds fs.mu.
func (fs *FS) writeDirEntry(dirCluster uint32, offset int, entry []byte) error {
	clusters, err := fs.chain(dirCluster)
	if err != nil {
		return err
	}
	cb := fs.bpb.clusterBytes()
	idx := offset / cb
	for idx >= len(clusters) {
		nc, err := fs.extendChain(clusters[len(clusters)-1])
		if err != nil {
			return err
		}
		if err := fs.zeroCluster(nc); err != nil {
			return err
		}
		clusters = append(clusters, nc)
	}
	return fs.dev.WriteAt(entry, fs.clusterOffset(clusters[idx])+int64(offset%cb))
}

// lookupIn scans the directory chain at dirCluster for name.
// Caller holds fs.mu.
func (fs *FS) lookupIn(dirCluster uint32, name string) (*dirEntry, error) {
	sn, err := encodeShortName(name)
	if err != nil {
		return nil, err
	}
	buf, err := fs.readDirChain(dirCluster)
	if err != nil {
		return nil, err
	}
	for off := 0; off+dirEntrySize <= len(buf); off += dirEntrySize {
		rec := buf[off : off+dirEntrySize]
		switch rec[0] {
		case 0x00:
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		case delMarker:
			continue
		}
		e := decodeDirEntry(rec)
		if e.attr&attrVolumeID != 0 {
			continue
		}
		if e.name == sn {
			e.entryCluster = dirCluster
			e.entryOffset = off
			return &e, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
}

// findFreeSlot returns the offset of the first usable directory slot.
// Caller holds fs.mu.
func (fs *FS) findFreeSlot(dirCluster uint32) (int, error) {
	buf, err := fs.readDirChain(dirCluster)
	if err != nil {
		return 0, err
	}
	for off := 0; off+dirEntrySize <= len(buf); off += dirEntrySize {
		if buf[off] == 0x00 || buf[off] == delMarker {
			return off, nil
		}
	}
	return len(buf), nil // extend the directory
}

// splitPath normalises p and returns its components.
func splitPath(p string) []string {
	var parts []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		default:
			parts = append(parts, c)
		}
	}
	return parts
}

// walkDir resolves the directory path components and returns the first
// cluster of the final directory. Caller holds fs.mu.
func (fs *FS) walkDir(parts []string) (uint32, error) {
	cur := fs.bpb.rootCluster
	for _, name := range parts {
		e, err := fs.lookupIn(cur, name)
		if err != nil {
			return 0, err
		}
		if !e.isDir() {
			return 0, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
		if e.cluster < 2 {
			return 0, fmt.Errorf("%w: directory %s has no cluster", ErrBadImage, name)
		}
		cur = e.cluster
	}
	return cur, nil
}

// resolve splits path into (parent directory cluster, base name).
// Caller holds fs.mu.
func (fs *FS) resolve(path string) (uint32, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("%w: empty path", ErrBadName)
	}
	dir, err := fs.walkDir(parts[:len(parts)-1])
	if err != nil {
		return 0, "", err
	}
	return dir, parts[len(parts)-1], nil
}

// Mkdir creates a directory. Parent directories must exist.
func (fs *FS) Mkdir(path string) (err error) {
	fs.mu.Lock()
	defer fs.unlockFlush(&err)
	dir, name, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if _, err := fs.lookupIn(dir, name); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	sn, err := encodeShortName(name)
	if err != nil {
		return err
	}
	c, err := fs.allocCluster()
	if err != nil {
		return err
	}
	if err := fs.zeroCluster(c); err != nil {
		return err
	}
	slot, err := fs.findFreeSlot(dir)
	if err != nil {
		return err
	}
	e := dirEntry{name: sn, attr: attrDir, cluster: c}
	return fs.writeDirEntry(dir, slot, e.encode())
}

// ReadDir lists the entries of the directory at path ("" or "/" = root).
func (fs *FS) ReadDir(path string) ([]FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.walkDir(splitPath(path))
	if err != nil {
		return nil, err
	}
	buf, err := fs.readDirChain(dir)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	for off := 0; off+dirEntrySize <= len(buf); off += dirEntrySize {
		rec := buf[off : off+dirEntrySize]
		if rec[0] == 0x00 {
			break
		}
		if rec[0] == delMarker {
			continue
		}
		e := decodeDirEntry(rec)
		if e.attr&attrVolumeID != 0 {
			continue
		}
		out = append(out, FileInfo{
			Name:  e.name.String(),
			Size:  int64(e.size),
			IsDir: e.isDir(),
		})
	}
	return out, nil
}

// Stat describes the entry at path.
func (fs *FS) Stat(path string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts := splitPath(path)
	if len(parts) == 0 {
		return FileInfo{Name: "/", IsDir: true}, nil
	}
	dir, err := fs.walkDir(parts[:len(parts)-1])
	if err != nil {
		return FileInfo{}, err
	}
	e, err := fs.lookupIn(dir, parts[len(parts)-1])
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: e.name.String(), Size: int64(e.size), IsDir: e.isDir()}, nil
}

// Remove deletes a file or an empty directory.
func (fs *FS) Remove(path string) (err error) {
	fs.mu.Lock()
	defer fs.unlockFlush(&err)
	dir, name, err := fs.resolve(path)
	if err != nil {
		return err
	}
	e, err := fs.lookupIn(dir, name)
	if err != nil {
		return err
	}
	if e.isDir() {
		buf, err := fs.readDirChain(e.cluster)
		if err != nil {
			return err
		}
		for off := 0; off+dirEntrySize <= len(buf); off += dirEntrySize {
			if buf[off] == 0x00 {
				break
			}
			if buf[off] != delMarker {
				return fmt.Errorf("%w: %s", ErrNotEmpty, path)
			}
		}
	}
	fs.freeChain(e.cluster)
	mark := e.encode()
	mark[0] = delMarker
	return fs.writeDirEntry(dir, e.entryOffset, mark)
}

// ---- file handles ----

// File is an open handle onto a regular file. It is not safe for
// concurrent use by multiple goroutines; the fd table layer hands each
// function its own handle.
type File struct {
	fs    *FS
	entry dirEntry
	pos   int64
}

// Create creates (or truncates) a file and returns a handle.
func (fs *FS) Create(path string) (_ *File, err error) {
	fs.mu.Lock()
	defer fs.unlockFlush(&err)
	dir, name, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if e, err := fs.lookupIn(dir, name); err == nil {
		if e.isDir() {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
		}
		// Truncate in place.
		fs.freeChain(e.cluster)
		e.cluster = 0
		e.size = 0
		if err := fs.writeDirEntry(dir, e.entryOffset, e.encode()); err != nil {
			return nil, err
		}
		return &File{fs: fs, entry: *e}, nil
	}
	sn, err := encodeShortName(name)
	if err != nil {
		return nil, err
	}
	slot, err := fs.findFreeSlot(dir)
	if err != nil {
		return nil, err
	}
	e := dirEntry{name: sn, attr: attrArchive, entryCluster: dir, entryOffset: slot}
	if err := fs.writeDirEntry(dir, slot, e.encode()); err != nil {
		return nil, err
	}
	return &File{fs: fs, entry: e}, nil
}

// Open opens an existing file for reading and writing.
func (fs *FS) Open(path string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	e, err := fs.lookupIn(dir, name)
	if err != nil {
		return nil, err
	}
	if e.isDir() {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	if int64(e.size) > fs.dev.Size() {
		return nil, fmt.Errorf("%w: %s claims %d bytes", ErrBadImage, path, e.size)
	}
	return &File{fs: fs, entry: *e}, nil
}

// Size returns the file's current size.
func (f *File) Size() int64 { return int64(f.entry.size) }

// Seek sets the read/write position.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(f.entry.size)
	default:
		return 0, fmt.Errorf("fatfs: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("fatfs: negative seek")
	}
	f.pos = np
	return np, nil
}

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt reads from the file at offset off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	size := int64(f.entry.size)
	if off >= size {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), size-off)]
	clusters, err := f.fs.chain(f.entry.cluster)
	if err != nil {
		return 0, err
	}
	return f.fs.extents(clusters, off, len(p), func(devOff int64, lo, hi int) error {
		return f.fs.dev.ReadAt(p[lo:hi], devOff)
	})
}

// Write implements io.Writer, growing the file as needed.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// WriteAt writes p at offset off, extending the FAT chain and file size
// as needed. Sparse gaps (off beyond EOF) are zero-filled.
func (f *File) WriteAt(p []byte, off int64) (_ int, err error) {
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	fs.mu.Lock()
	defer fs.unlockFlush(&err)
	return f.writeAt(p, off)
}

// writeAt is WriteAt for a caller holding fs.mu.
func (f *File) writeAt(p []byte, off int64) (int, error) {
	fs := f.fs
	clusters, err := fs.chain(f.entry.cluster)
	if err != nil {
		return 0, err
	}
	cb := int64(fs.bpb.clusterBytes())
	end := off + int64(len(p))
	// A shrinking Truncate leaves stale bytes past EOF in the tail
	// cluster; a write beyond EOF must expose zeros there instead.
	if size := int64(f.entry.size); off > size && size%cb != 0 && int(size/cb) < len(clusters) {
		gap := min(off, (size/cb+1)*cb) - size
		if err := fs.dev.WriteAt(make([]byte, gap), fs.clusterOffset(clusters[size/cb])+size%cb); err != nil {
			return 0, err
		}
	}
	for need := int((end + cb - 1) / cb); len(clusters) < need; {
		var last uint32
		if len(clusters) > 0 {
			last = clusters[len(clusters)-1]
		}
		nc, err := fs.extendChain(last)
		if err != nil {
			return 0, err
		}
		// Zero only clusters this write will not fully overwrite; fully
		// covered clusters get their bytes immediately below, and zeroing
		// them first would double the device write traffic.
		idx := int64(len(clusters))
		if off > idx*cb || end < (idx+1)*cb {
			if err := fs.zeroCluster(nc); err != nil {
				return 0, err
			}
		}
		if len(clusters) == 0 {
			f.entry.cluster = nc
		}
		clusters = append(clusters, nc)
	}

	written, err := fs.extents(clusters, off, len(p), func(devOff int64, lo, hi int) error {
		return fs.dev.WriteAt(p[lo:hi], devOff)
	})
	if err != nil {
		return written, err
	}
	f.entry.size = max(f.entry.size, uint32(end))
	return written, fs.writeDirEntry(f.entry.entryCluster, f.entry.entryOffset, f.entry.encode())
}

// Truncate shrinks or grows the file to size bytes.
func (f *File) Truncate(size int64) (err error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.unlockFlush(&err)
	if size > int64(f.entry.size) {
		_, err := f.writeAt(make([]byte, size-int64(f.entry.size)), int64(f.entry.size))
		return err
	}
	clusters, err := fs.chain(f.entry.cluster)
	if err != nil {
		return err
	}
	cb := int64(fs.bpb.clusterBytes())
	if keep := int((size + cb - 1) / cb); keep < len(clusters) {
		// Terminate the chain after the kept prefix; free the rest.
		if keep == 0 {
			f.entry.cluster = 0
		} else {
			fs.setFAT(clusters[keep-1], fatEOC)
		}
		fs.freeChain(clusters[keep])
	}
	f.entry.size = uint32(size)
	return fs.writeDirEntry(f.entry.entryCluster, f.entry.entryOffset, f.entry.encode())
}

// Close releases the handle. The operation that changed the file already
// wrote its data and its FAT sectors to the device.
func (f *File) Close() error { return nil }

// ---- convenience helpers used by the LibOS and workloads ----

// WriteFile creates path with the given contents.
func (fs *FS) WriteFile(path string, data []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile returns the full contents of path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf, nil
}
