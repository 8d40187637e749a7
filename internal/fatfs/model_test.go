package fatfs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"alloystack/internal/blockdev"
	"alloystack/internal/fatfs"
	"alloystack/internal/ramfs"
	"alloystack/internal/vfs"
)

// TestModelAgainstRamfs drives fatfs and ramfs through vfs with the same
// seeded random op sequence. After every op it checks that both returned
// the same result, that a fresh Mount of the device reads back the same
// tree, and that the FAT copies are byte-identical: the device is a
// consistent image between operations.
func TestModelAgainstRamfs(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, seed, 200) })
	}
}

// modelNames mixes file-like and directory-like names; any of them may
// end up as either, so ErrIsDir, ErrNotDir and ErrExist paths are hit.
var modelNames = []string{"A.DAT", "B.DAT", "C.TXT", "D1", "D2"}

// modelPath draws a leaf from modelNames under up to two parent
// components, which are mostly the directory-like names so that most
// ops reach an existing directory.
func modelPath(r *rand.Rand) string {
	p := modelNames[r.Intn(len(modelNames))]
	for depth := r.Intn(4) - 1; depth > 0; depth-- {
		parent := modelNames[3+r.Intn(2)]
		if r.Intn(8) == 0 {
			parent = modelNames[r.Intn(len(modelNames))]
		}
		p = parent + "/" + p
	}
	return p
}

type modelPair struct {
	dev *blockdev.MemDisk
	fat *vfs.VFS
	ram *vfs.VFS
}

func runModel(t *testing.T, seed int64, ops int) {
	dev := blockdev.NewMemDisk(4 << 20)
	ffs, err := fatfs.Format(dev, fatfs.MkfsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := modelPair{dev: dev, fat: vfs.New(), ram: vfs.New()}
	if err := m.fat.Mount("/", vfs.FatFS{FS: ffs}); err != nil {
		t.Fatal(err)
	}
	if err := m.ram.Mount("/", vfs.RamFS{FS: ramfs.New()}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		op, fatRes, ramRes := m.step(r)
		if fatRes != ramRes {
			t.Fatalf("seed %d op %d %s:\n fatfs: %s\n ramfs: %s", seed, i, op, fatRes, ramRes)
		}
		if err := m.checkDevice(); err != nil {
			t.Fatalf("seed %d op %d %s: %v", seed, i, op, err)
		}
	}
}

// step runs one random op on both filesystems and renders each result.
func (m modelPair) step(r *rand.Rand) (op, fatRes, ramRes string) {
	path := modelPath(r)
	switch k := r.Intn(9); k {
	case 0, 1: // Create, then an optional write through the new handle
		var data []byte
		if r.Intn(3) > 0 {
			data = randBytes(r, r.Intn(20000))
		}
		op = fmt.Sprintf("Create(%s)+Write(%d)", path, len(data))
		do := func(v *vfs.VFS) string {
			f, err := v.Create(path)
			if err != nil {
				return errClass(err)
			}
			n, err := f.Write(data)
			return fmt.Sprintf("n=%d %s size=%d", n, errClass(err), f.Size())
		}
		return op, do(m.fat), do(m.ram)
	case 2: // WriteAt at a random offset, possibly leaving a sparse gap
		off := int64(r.Intn(24000))
		data := randBytes(r, 1+r.Intn(9000))
		op = fmt.Sprintf("WriteAt(%s, %d bytes @%d)", path, len(data), off)
		do := func(v *vfs.VFS) string {
			f, err := v.Open(path)
			if err != nil {
				return errClass(err)
			}
			n, err := f.WriteAt(data, off)
			return fmt.Sprintf("n=%d %s size=%d", n, errClass(err), f.Size())
		}
		return op, do(m.fat), do(m.ram)
	case 3: // Truncate up or down
		size := int64(r.Intn(30000))
		op = fmt.Sprintf("Truncate(%s, %d)", path, size)
		do := func(v *vfs.VFS) string {
			f, err := v.Open(path)
			if err != nil {
				return errClass(err)
			}
			err = f.Truncate(size)
			return fmt.Sprintf("%s size=%d", errClass(err), f.Size())
		}
		return op, do(m.fat), do(m.ram)
	case 4:
		op = fmt.Sprintf("Remove(%s)", path)
		do := func(v *vfs.VFS) string { return errClass(v.Remove(path)) }
		return op, do(m.fat), do(m.ram)
	case 5:
		op = fmt.Sprintf("Mkdir(%s)", path)
		do := func(v *vfs.VFS) string { return errClass(v.Mkdir(path)) }
		return op, do(m.fat), do(m.ram)
	case 6:
		if r.Intn(4) == 0 {
			path = ""
		}
		op = fmt.Sprintf("ReadDir(%q)", path)
		do := func(v *vfs.VFS) string {
			fis, err := readDirSorted(v, path)
			return fmt.Sprintf("%v %s", fis, errClass(err))
		}
		return op, do(m.fat), do(m.ram)
	case 7:
		op = fmt.Sprintf("Stat(%s)", path)
		do := func(v *vfs.VFS) string {
			fi, err := v.Stat(path)
			return fmt.Sprintf("%+v %s", fi, errClass(err))
		}
		return op, do(m.fat), do(m.ram)
	default:
		op = fmt.Sprintf("ReadFile(%s)", path)
		do := func(v *vfs.VFS) string {
			data, err := readFile(v, path)
			return fmt.Sprintf("%x %s", digest(data), errClass(err))
		}
		return op, do(m.fat), do(m.ram)
	}
}

// checkDevice mounts the device afresh and compares the tree it reads
// with ramfs's, then compares every FAT copy with FAT #0.
func (m modelPair) checkDevice() error {
	fresh, err := fatfs.Mount(m.dev)
	if err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	v := vfs.New()
	if err := v.Mount("/", vfs.FatFS{FS: fresh}); err != nil {
		return err
	}
	got, err := dumpTree(v, "")
	if err != nil {
		return fmt.Errorf("remounted tree: %w", err)
	}
	want, err := dumpTree(m.ram, "")
	if err != nil {
		return fmt.Errorf("ramfs tree: %w", err)
	}
	if got != want {
		return fmt.Errorf("remounted tree differs:\n got:  %s\n want: %s", got, want)
	}
	return checkFATCopies(m.dev)
}

// checkFATCopies reads the geometry from the boot sector and requires
// every FAT copy to equal FAT #0 byte for byte.
func checkFATCopies(dev blockdev.Device) error {
	boot := make([]byte, 512)
	if err := dev.ReadAt(boot, 0); err != nil {
		return err
	}
	reserved := int64(binary.LittleEndian.Uint16(boot[14:16]))
	nfats := int64(boot[16])
	perFAT := int64(binary.LittleEndian.Uint32(boot[36:40]))
	fat0 := make([]byte, perFAT*512)
	if err := dev.ReadAt(fat0, reserved*512); err != nil {
		return err
	}
	other := make([]byte, len(fat0))
	for f := int64(1); f < nfats; f++ {
		if err := dev.ReadAt(other, (reserved+f*perFAT)*512); err != nil {
			return err
		}
		if !bytes.Equal(fat0, other) {
			return fmt.Errorf("FAT #%d differs from FAT #0", f)
		}
	}
	return nil
}

// dumpTree renders every directory and file under dir, recursively.
func dumpTree(v *vfs.VFS, dir string) (string, error) {
	fis, err := readDirSorted(v, dir)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, fi := range fis {
		p := fi.Name
		if dir != "" {
			p = dir + "/" + fi.Name
		}
		if fi.IsDir {
			sub, err := dumpTree(v, p)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s/{%s} ", p, sub)
			continue
		}
		data, err := readFile(v, p)
		if err != nil {
			return "", fmt.Errorf("%s: %w", p, err)
		}
		fmt.Fprintf(&b, "%s:%d:%x ", p, fi.Size, digest(data))
	}
	return b.String(), nil
}

func readDirSorted(v *vfs.VFS, path string) ([]vfs.FileInfo, error) {
	fis, err := v.ReadDir(path)
	sort.Slice(fis, func(i, j int) bool { return fis[i].Name < fis[j].Name })
	return fis, err
}

func readFile(v *vfs.VFS, path string) ([]byte, error) {
	f, err := v.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// digest is a cheap content fingerprint (FNV-1a) so results print short.
func digest(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h ^ uint64(len(p))
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// errClass maps each filesystem's sentinel to one shared name, so the
// two implementations' errors compare by meaning.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fatfs.ErrNotExist), errors.Is(err, ramfs.ErrNotExist):
		return "ENOENT"
	case errors.Is(err, fatfs.ErrExist), errors.Is(err, ramfs.ErrExist):
		return "EEXIST"
	case errors.Is(err, fatfs.ErrIsDir), errors.Is(err, ramfs.ErrIsDir):
		return "EISDIR"
	case errors.Is(err, fatfs.ErrNotDir), errors.Is(err, ramfs.ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, fatfs.ErrNotEmpty), errors.Is(err, ramfs.ErrNotEmpty):
		return "ENOTEMPTY"
	}
	return "error: " + err.Error()
}
