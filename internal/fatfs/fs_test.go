package fatfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"alloystack/internal/blockdev"
)

func newTestFS(t testing.TB, size int64) *FS {
	t.Helper()
	fs, err := Format(blockdev.NewMemDisk(size), MkfsOptions{})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return fs
}

func TestFormatAndMount(t *testing.T) {
	dev := blockdev.NewMemDisk(4 << 20)
	fs, err := Format(dev, MkfsOptions{})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	if err := fs.WriteFile("hello.txt", []byte("persisted across mount")); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	data, err := fs2.ReadFile("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "persisted across mount" {
		t.Fatalf("remounted data = %q", data)
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	dev := blockdev.NewMemDisk(1 << 20)
	if _, err := Mount(dev); !errors.Is(err, ErrBadImage) || !errors.Is(err, ErrBlank) {
		t.Fatalf("Mount of zeroed disk: err = %v, want ErrBlank, an ErrBadImage", err)
	}
}

// TestMountRejectsBadGeometry mutates one boot-sector field of a
// formatted image. Each mutation once panicked Mount or the first Create
// (or, for the wrapped cluster count, allocated gigabytes first); Mount
// must refuse each with ErrBadImage instead.
func TestMountRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*bpb)
	}{
		{"rootCluster=0", func(b *bpb) { b.rootCluster = 0 }},
		{"sectorsPerFAT=1", func(b *bpb) { b.sectorsPerFAT = 1 }},
		{"totalSectors=1<<30", func(b *bpb) { b.totalSectors = 1 << 30 }},
		{"totalSectors=10", func(b *bpb) { b.totalSectors = 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.NewMemDisk(1 << 20)
			if _, err := Format(dev, MkfsOptions{}); err != nil {
				t.Fatal(err)
			}
			boot := make([]byte, sectorSize)
			if err := dev.ReadAt(boot, 0); err != nil {
				t.Fatal(err)
			}
			b, err := decodeBPB(boot)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(b)
			if err := dev.WriteAt(b.encode(), 0); err != nil {
				t.Fatal(err)
			}
			fs, err := Mount(dev)
			if err == nil {
				_, err = fs.Create("x.txt")
			}
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("Mount+Create: err = %v, want ErrBadImage", err)
			}
		})
	}
}

func TestCreateReadWrite(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	f, err := fs.Create("data.bin")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := []byte("the quick brown fox")
	if n, err := f.Write(payload); n != len(payload) || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(payload))
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(f, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestMultiClusterFile(t *testing.T) {
	fs := newTestFS(t, 8<<20)
	// Write something much larger than a cluster (4 KiB default).
	payload := make([]byte, 3*fs.ClusterSize()+1234)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := fs.WriteFile("big.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-cluster round trip mismatch")
	}
}

func TestReadAtOffsets(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := fs.WriteFile("f.bin", payload); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 1, 4095, 4096, 4097, 9000} {
		got := make([]byte, 100)
		n, err := f.ReadAt(got, off)
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		want := payload[off:]
		if len(want) > n {
			want = want[:n]
		}
		if !bytes.Equal(got[:n], want) {
			t.Fatalf("ReadAt(%d) content mismatch", off)
		}
	}
	// Reading past EOF returns EOF.
	if _, err := f.ReadAt(make([]byte, 1), 10000); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt past EOF: err = %v, want io.EOF", err)
	}
}

func TestWriteAtSparseGap(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	f, err := fs.Create("sparse.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 9000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 9004 {
		t.Fatalf("Size = %d, want 9004", f.Size())
	}
	got := make([]byte, 9004)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	for i := 0; i < 9000; i++ {
		if got[i] != 0 {
			t.Fatalf("gap byte %d = %d, want 0", i, got[i])
		}
	}
	if string(got[9000:]) != "tail" {
		t.Fatalf("tail = %q", got[9000:])
	}
}

// TestWriteAtGapAfterShrink: a shrinking Truncate keeps the tail cluster
// with its old bytes past EOF; a later write beyond EOF must read those
// bytes back as zeros.
func TestWriteAtGapAfterShrink(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	if err := fs.WriteFile("s.bin", bytes.Repeat([]byte{0xAA}, 5000)); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("s.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, 3000); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("s.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xAA}, 100), make([]byte, 2901)...)
	want[3000] = 1
	if !bytes.Equal(got, want) {
		t.Fatalf("gap after shrink: first nonzero past EOF at %d", bytes.IndexByte(got[100:], 0xAA)+100)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	if err := fs.WriteFile("x.txt", make([]byte, 50000)); err != nil {
		t.Fatal(err)
	}
	free1 := fs.FreeClusters()
	if err := fs.WriteFile("x.txt", []byte("short")); err != nil {
		t.Fatal(err)
	}
	if free2 := fs.FreeClusters(); free2 <= free1 {
		t.Fatalf("truncating rewrite did not free clusters: %d -> %d", free1, free2)
	}
	data, err := fs.ReadFile("x.txt")
	if err != nil || string(data) != "short" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
}

func TestTruncate(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := fs.WriteFile("t.bin", payload); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("t.bin")
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := fs.FreeClusters()
	if err := f.Truncate(5000); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if f.Size() != 5000 {
		t.Fatalf("Size after truncate = %d", f.Size())
	}
	if fs.FreeClusters() <= freeBefore {
		t.Fatal("shrinking truncate freed no clusters")
	}
	got := make([]byte, 5000)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:5000]) {
		t.Fatal("content after truncate mismatch")
	}
	// Truncate to zero releases the whole chain.
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("Size after truncate(0) = %d", f.Size())
	}
	// Growing truncate zero-fills.
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 100)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("growing truncate produced nonzero bytes")
		}
	}
}

func TestDirectories(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	if err := fs.Mkdir("inputs"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if err := fs.Mkdir("inputs/stage1"); err != nil {
		t.Fatalf("nested Mkdir: %v", err)
	}
	if err := fs.WriteFile("inputs/stage1/part0.txt", []byte("deep file")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("inputs/stage1/part0.txt")
	if err != nil || string(data) != "deep file" {
		t.Fatalf("nested read = %q, %v", data, err)
	}
	infos, err := fs.ReadDir("inputs")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "STAGE1" || !infos[0].IsDir {
		t.Fatalf("ReadDir(inputs) = %+v", infos)
	}
	st, err := fs.Stat("inputs/stage1/part0.txt")
	if err != nil || st.Size != 9 || st.IsDir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := fs.Mkdir("inputs"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Mkdir: err = %v, want ErrExist", err)
	}
}

func TestManyFilesInDirectoryGrowsChain(t *testing.T) {
	fs := newTestFS(t, 16<<20)
	// 4 KiB cluster holds 128 entries; create more to force extension.
	for i := 0; i < 300; i++ {
		name := fileName(i)
		if err := fs.WriteFile(name, []byte{byte(i)}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	infos, err := fs.ReadDir("")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 300 {
		t.Fatalf("ReadDir count = %d, want 300", len(infos))
	}
	// Spot-check contents.
	data, err := fs.ReadFile(fileName(250))
	if err != nil || data[0] != 250 {
		t.Fatalf("file 250 = %v, %v", data, err)
	}
}

func fileName(i int) string {
	return "F" + string(rune('A'+i/26/26%26)) + string(rune('A'+i/26%26)) + string(rune('A'+i%26)) + ".DAT"
}

func TestRemove(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	if err := fs.WriteFile("gone.txt", make([]byte, 9000)); err != nil {
		t.Fatal(err)
	}
	freeBefore := fs.FreeClusters()
	if err := fs.Remove("gone.txt"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := fs.Open("gone.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open removed file: err = %v, want ErrNotExist", err)
	}
	if fs.FreeClusters() <= freeBefore {
		t.Fatal("Remove freed no clusters")
	}
	// Name is reusable.
	if err := fs.WriteFile("gone.txt", []byte("back")); err != nil {
		t.Fatalf("recreate after remove: %v", err)
	}
}

func TestRemoveDirectory(t *testing.T) {
	fs := newTestFS(t, 4<<20)
	if err := fs.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("d/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: err = %v, want ErrNotEmpty", err)
	}
	if err := fs.Remove("d/f.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("d"); err != nil {
		t.Fatalf("remove empty dir: %v", err)
	}
	if _, err := fs.ReadDir("d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadDir removed dir: err = %v, want ErrNotExist", err)
	}
}

func TestNameValidation(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	for _, bad := range []string{"waytoolongname.txt", "x.html", "a b.txt", "", "日本.txt"} {
		if _, err := fs.Create(bad); !errors.Is(err, ErrBadName) {
			t.Fatalf("Create(%q): err = %v, want ErrBadName", bad, err)
		}
	}
	for _, good := range []string{"A.TXT", "a.txt", "NO_EXT", "X1#$-2.D"} {
		if _, err := fs.Create(good); err != nil {
			t.Fatalf("Create(%q): %v", good, err)
		}
	}
}

func TestCaseInsensitiveLookup(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	if err := fs.WriteFile("MiXeD.TxT", []byte("dos style")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("mixed.txt")
	if err != nil || string(data) != "dos style" {
		t.Fatalf("case-insensitive read = %q, %v", data, err)
	}
}

func TestNoSpace(t *testing.T) {
	fs := newTestFS(t, 256*1024) // tiny volume
	var err error
	for i := 0; i < 10000; i++ {
		err = fs.WriteFile(fileName(i), make([]byte, 8192))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling the volume: err = %v, want ErrNoSpace", err)
	}
}

func TestOpenDirectoryFails(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	if err := fs.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Open(dir): err = %v, want ErrIsDir", err)
	}
	if _, err := fs.Create("d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Create(dir): err = %v, want ErrIsDir", err)
	}
}

func TestPathThroughFileFails(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	if err := fs.WriteFile("f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("f.txt/inner"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("path through file: err = %v, want ErrNotDir", err)
	}
}

// TestPropertyRandomFileOps mirrors a model map[string][]byte against the
// filesystem under random create/write/read/remove sequences.
func TestPropertyRandomFileOps(t *testing.T) {
	f := func(seed int64) bool {
		fs, err := Format(blockdev.NewMemDisk(8<<20), MkfsOptions{})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		model := make(map[string][]byte)
		names := []string{"A.DAT", "B.DAT", "C.DAT", "D.DAT", "E.DAT"}
		for i := 0; i < 60; i++ {
			name := names[r.Intn(len(names))]
			switch r.Intn(3) {
			case 0: // write
				data := make([]byte, r.Intn(20000))
				r.Read(data)
				if err := fs.WriteFile(name, data); err != nil {
					t.Logf("seed %d: WriteFile: %v", seed, err)
					return false
				}
				model[name] = data
			case 1: // read & compare
				want, ok := model[name]
				got, err := fs.ReadFile(name)
				if !ok {
					if !errors.Is(err, ErrNotExist) {
						t.Logf("seed %d: read missing: %v", seed, err)
						return false
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("seed %d: content mismatch for %s (%v)", seed, name, err)
					return false
				}
			case 2: // remove
				err := fs.Remove(name)
				if _, ok := model[name]; ok {
					if err != nil {
						t.Logf("seed %d: Remove: %v", seed, err)
						return false
					}
					delete(model, name)
				} else if !errors.Is(err, ErrNotExist) {
					t.Logf("seed %d: remove missing: %v", seed, err)
					return false
				}
			}
		}
		// Final verification of all survivors.
		for name, want := range model {
			got, err := fs.ReadFile(name)
			if err != nil || !bytes.Equal(got, want) {
				t.Logf("seed %d: final mismatch for %s", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestShortNameRoundTrip(t *testing.T) {
	f := func(idx uint16) bool {
		name := fileName(int(idx) % 2000)
		sn, err := encodeShortName(name)
		if err != nil {
			return false
		}
		return sn.String() == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFatfsWrite64K(b *testing.B) {
	fs, err := Format(blockdev.NewMemDisk(64<<20), MkfsOptions{})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	f, err := fs.Create("bench.bin")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFatfsRead64K(b *testing.B) {
	fs, err := Format(blockdev.NewMemDisk(64<<20), MkfsOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteFile("bench.bin", make([]byte, 64*1024)); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open("bench.bin")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			b.Fatal(err)
		}
	}
}

// TestDeviceOpsPerOperation pins the device calls of the file transport's
// operations on a fresh image, so a regression to per-cluster or
// per-entry device traffic fails here rather than only in the e2e ladder.
func TestDeviceOpsPerOperation(t *testing.T) {
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(4 << 20)}
	fs, err := Format(dev, MkfsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	for _, tc := range []struct {
		name          string
		op            func() error
		reads, writes int64
	}{
		// Create: two root-directory reads (lookup, free slot) and the
		// entry; WriteAt: one 64 KiB extent, the entry, and FAT sector 0
		// to each of the two copies.
		{"WriteFile 64KiB fresh", func() error { return fs.WriteFile("EDGE.BIN", payload) }, 2, 5},
		// Create truncates: one lookup, the entry, the freed chain's FAT
		// sector to both copies; then the same WriteAt.
		{"WriteFile 64KiB over last", func() error { return fs.WriteFile("EDGE.BIN", payload) }, 1, 7},
		// Open's lookup, then one 64 KiB extent.
		{"ReadFile 64KiB", func() error { _, err := fs.ReadFile("EDGE.BIN"); return err }, 2, 0},
		// The lookup, the deleted entry, FAT sector 0 to both copies.
		{"Remove", func() error { return fs.Remove("EDGE.BIN") }, 1, 3},
	} {
		r0, w0, _, _ := dev.Stats()
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r1, w1, _, _ := dev.Stats()
		if r1-r0 != tc.reads || w1-w0 != tc.writes {
			t.Errorf("%s: %d device reads, %d writes; want %d, %d", tc.name, r1-r0, w1-w0, tc.reads, tc.writes)
		}
	}
}
