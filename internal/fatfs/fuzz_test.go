package fatfs

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"alloystack/internal/blockdev"
)

// fuzzImage is a formatted 1 MiB image holding a subdirectory and two
// files: root is cluster 2, SUB cluster 3, A.TXT clusters 4-5 and
// SUB/B.DAT cluster 6.
var fuzzImage = sync.OnceValue(func() []byte {
	dev := blockdev.NewMemDisk(1 << 20)
	fs, err := Format(dev, MkfsOptions{})
	if err != nil {
		panic(err)
	}
	for _, step := range []error{
		fs.Mkdir("SUB"),
		fs.WriteFile("A.TXT", make([]byte, 6000)),
		fs.WriteFile("SUB/B.DAT", []byte("bee")),
	} {
		if step != nil {
			panic(step)
		}
	}
	img := make([]byte, dev.Size())
	if err := dev.ReadAt(img, 0); err != nil {
		panic(err)
	}
	return img
})

// mutatedImage loads fuzzImage onto a fresh device and applies a
// mutation script to it: 4-byte records of (region, offset low, offset
// high, value). The region picks the boot sector, FAT #0, FAT #1, the
// root directory cluster or SUB's cluster, and the offset wraps within
// it.
func mutatedImage(script []byte) *blockdev.MemDisk {
	img := fuzzImage()
	dev := blockdev.NewMemDisk(int64(len(img)))
	b, err := decodeBPB(img[:sectorSize])
	if err == nil {
		err = dev.WriteAt(img, 0)
	}
	if err != nil {
		panic(err)
	}
	fatBytes := int(b.sectorsPerFAT) * sectorSize
	cb := b.clusterBytes()
	clusterAt := func(c int) int { return int(b.firstDataSector())*sectorSize + (c-2)*cb }
	regions := [][2]int{ // start, length
		{0, sectorSize},
		{int(b.reservedSectors) * sectorSize, fatBytes},
		{int(b.reservedSectors)*sectorSize + fatBytes, fatBytes},
		{clusterAt(2), cb},
		{clusterAt(3), cb},
	}
	for ; len(script) >= 4; script = script[4:] {
		r := regions[int(script[0])%len(regions)]
		off := int(binary.LittleEndian.Uint16(script[1:3])) % r[1]
		if err := dev.WriteAt(script[3:4], int64(r[0]+off)); err != nil {
			panic(err)
		}
	}
	return dev
}

// FuzzFatfsMount mounts a mutated image and, when the mount succeeds,
// reads, writes and removes through it. Any outcome is a value or an
// error: never a panic, a hang, or an allocation larger than the device.
func FuzzFatfsMount(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		dev := mutatedImage(script)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exerciseImage(dev)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(dev.Size()) {
			t.Fatalf("allocated %d bytes on a %d-byte device", grew, dev.Size())
		}
	})
}

// exerciseImage mounts dev and drives every operation the LibOS uses,
// ignoring errors: the fuzz target only cares that each call returns.
func exerciseImage(dev blockdev.Device) {
	fs, err := Mount(dev)
	if err != nil {
		return
	}
	_, _ = fs.ReadDir("")
	_, _ = fs.ReadDir("SUB")
	_, _ = fs.Stat("SUB/B.DAT")
	_, _ = fs.ReadFile("A.TXT")
	_, _ = fs.ReadFile("SUB/B.DAT")
	_ = fs.WriteFile("SUB/C.DAT", make([]byte, 5000))
	_ = fs.WriteFile("A.TXT", []byte("short"))
	_ = fs.Mkdir("NEW")
	_ = fs.Remove("SUB/B.DAT")
	_ = fs.Remove("A.TXT")
	if again, err := Mount(dev); err == nil {
		_, _ = again.ReadFile("SUB/C.DAT")
	}
}

// TestCyclicChainIsBadImage: a FAT chain that loops back on itself ends
// as ErrBadImage, not as a hang or an ever-growing cluster list.
func TestCyclicChainIsBadImage(t *testing.T) {
	dev := mutatedImage([]byte{1, 20, 0, 4, 1, 21, 0, 0, 1, 22, 0, 0, 1, 23, 0, 0}) // FAT[5] = 4
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("A.TXT"); !errors.Is(err, ErrBadImage) {
		t.Fatalf("ReadFile of a cyclic chain: err = %v, want ErrBadImage", err)
	}
}
