// Package fatfs is a from-scratch FAT32 filesystem over a block device.
// It is the analogue of the rust-fatfs crate the paper's as-libos uses to
// serve file I/O inside a WFD: workflow inputs live in a FAT disk image,
// and the fatfs module of the LibOS routes open/read/write calls here.
//
// The implementation covers the format the LibOS needs: FAT32 with 8.3
// directory entries (names are stored upper-case and matched
// case-insensitively, as DOS did), subdirectories, file growth through
// FAT chain extension, truncation, deletion, and free-cluster accounting.
// Long file names are intentionally out of scope; the LibOS mounts images
// it builds itself, so it controls the namespace.
package fatfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Filesystem geometry constants.
const (
	sectorSize = 512

	// FAT32 entry special values.
	fatFree      = 0x00000000
	fatEOC       = 0x0FFFFFF8 // end-of-chain marker (>= this is EOC)
	fatBad       = 0x0FFFFFF7
	fatEntryMask = 0x0FFFFFFF

	// Directory entry layout.
	dirEntrySize = 32
	attrReadOnly = 0x01
	attrHidden   = 0x02
	attrSystem   = 0x04
	attrVolumeID = 0x08
	attrDir      = 0x10
	attrArchive  = 0x20

	delMarker = 0xE5 // first name byte of a deleted entry
)

// Errors returned by filesystem operations.
var (
	ErrNotExist     = errors.New("fatfs: no such file or directory")
	ErrExist        = errors.New("fatfs: file exists")
	ErrIsDir        = errors.New("fatfs: is a directory")
	ErrNotDir       = errors.New("fatfs: not a directory")
	ErrNoSpace      = errors.New("fatfs: no free clusters")
	ErrBadName      = errors.New("fatfs: invalid 8.3 name")
	ErrNotEmpty     = errors.New("fatfs: directory not empty")
	ErrBadImage     = errors.New("fatfs: not a FAT32 image")
	ErrReadOnlyFile = errors.New("fatfs: file is read-only")

	// ErrBlank is Mount's ErrBadImage for a device whose boot sector is
	// all zero: nothing was ever written there, so Format loses nothing.
	ErrBlank = fmt.Errorf("%w: blank device", ErrBadImage)
)

// bpb is the BIOS parameter block of a FAT32 volume — the subset of
// fields this implementation reads and writes.
type bpb struct {
	bytesPerSector    uint16
	sectorsPerCluster uint8
	reservedSectors   uint16
	numFATs           uint8
	totalSectors      uint32
	sectorsPerFAT     uint32
	rootCluster       uint32
}

func (b *bpb) clusterBytes() int {
	return int(b.bytesPerSector) * int(b.sectorsPerCluster)
}

// firstDataSector returns the sector where cluster 2 begins.
func (b *bpb) firstDataSector() uint32 {
	return uint32(b.reservedSectors) + uint32(b.numFATs)*b.sectorsPerFAT
}

// clusterCount returns the number of data clusters on the volume.
func (b *bpb) clusterCount() uint32 {
	dataSectors := b.totalSectors - b.firstDataSector()
	return dataSectors / uint32(b.sectorsPerCluster)
}

// encode serialises the BPB into a 512-byte boot sector.
func (b *bpb) encode() []byte {
	s := make([]byte, sectorSize)
	// Jump instruction + OEM name make the sector look bootable to
	// standard tooling.
	copy(s[0:3], []byte{0xEB, 0x58, 0x90})
	copy(s[3:11], "ALLOYSTK")
	binary.LittleEndian.PutUint16(s[11:13], b.bytesPerSector)
	s[13] = b.sectorsPerCluster
	binary.LittleEndian.PutUint16(s[14:16], b.reservedSectors)
	s[16] = b.numFATs
	// 17..19: root entry count / total16 are zero on FAT32.
	s[21] = 0xF8 // media descriptor: fixed disk
	binary.LittleEndian.PutUint32(s[32:36], b.totalSectors)
	binary.LittleEndian.PutUint32(s[36:40], b.sectorsPerFAT)
	binary.LittleEndian.PutUint32(s[44:48], b.rootCluster)
	copy(s[82:90], "FAT32   ")
	s[510] = 0x55
	s[511] = 0xAA
	return s
}

// decodeBPB parses a boot sector.
func decodeBPB(s []byte) (*bpb, error) {
	if len(s) < sectorSize || s[510] != 0x55 || s[511] != 0xAA {
		return nil, fmt.Errorf("%w: bad boot signature", ErrBadImage)
	}
	if string(s[82:87]) != "FAT32" {
		return nil, fmt.Errorf("%w: bad filesystem type", ErrBadImage)
	}
	b := &bpb{
		bytesPerSector:    binary.LittleEndian.Uint16(s[11:13]),
		sectorsPerCluster: s[13],
		reservedSectors:   binary.LittleEndian.Uint16(s[14:16]),
		numFATs:           s[16],
		totalSectors:      binary.LittleEndian.Uint32(s[32:36]),
		sectorsPerFAT:     binary.LittleEndian.Uint32(s[36:40]),
		rootCluster:       binary.LittleEndian.Uint32(s[44:48]),
	}
	if b.bytesPerSector != sectorSize || b.sectorsPerCluster == 0 || b.numFATs == 0 {
		return nil, fmt.Errorf("%w: implausible geometry", ErrBadImage)
	}
	return b, nil
}

// checkGeometry rejects a boot sector whose layout does not fit a device
// of devSize bytes, so that Mount never sizes the FAT from a lie and no
// cluster number it accepts maps outside the data region.
func (b *bpb) checkGeometry(devSize int64) error {
	firstData := uint64(b.reservedSectors) + uint64(b.numFATs)*uint64(b.sectorsPerFAT)
	switch {
	case int64(b.totalSectors) > devSize/sectorSize:
		return fmt.Errorf("%w: %d sectors on a %d-byte device", ErrBadImage, b.totalSectors, devSize)
	case b.reservedSectors == 0:
		return fmt.Errorf("%w: no reserved boot sector", ErrBadImage)
	case firstData >= uint64(b.totalSectors):
		return fmt.Errorf("%w: data region starts at sector %d of %d", ErrBadImage, firstData, b.totalSectors)
	}
	clusters := uint64(b.clusterCount())
	switch {
	case uint64(b.sectorsPerFAT)*entriesPerSector < clusters+2:
		return fmt.Errorf("%w: %d FAT sectors cannot map %d clusters", ErrBadImage, b.sectorsPerFAT, clusters)
	case b.rootCluster < 2 || uint64(b.rootCluster) >= clusters+2:
		return fmt.Errorf("%w: root cluster %d outside [2, %d)", ErrBadImage, b.rootCluster, clusters+2)
	}
	return nil
}

// shortName is the canonical 11-byte 8.3 representation of a file name.
type shortName [11]byte

// encodeShortName validates name and packs it into 8.3 form.
// Accepted: 1-8 chars, optional dot and 1-3 char extension, from the DOS
// portable character set; stored upper-case.
func encodeShortName(name string) (shortName, error) {
	var sn shortName
	for i := range sn {
		sn[i] = ' '
	}
	if name == "" || name == "." || name == ".." {
		return sn, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	base, ext := name, ""
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		base, ext = name[:i], name[i+1:]
	}
	if len(base) == 0 || len(base) > 8 || len(ext) > 3 {
		return sn, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	put := func(dst []byte, s string) error {
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c >= 'a' && c <= 'z':
				c -= 'a' - 'A'
			case c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			case strings.IndexByte("!#$%&'()-@^_`{}~", c) >= 0:
			default:
				return fmt.Errorf("%w: %q", ErrBadName, s)
			}
			dst[i] = c
		}
		return nil
	}
	if err := put(sn[0:8], base); err != nil {
		return sn, err
	}
	if err := put(sn[8:11], ext); err != nil {
		return sn, err
	}
	return sn, nil
}

// String renders the short name back to "BASE.EXT" form.
func (sn shortName) String() string {
	base := strings.TrimRight(string(sn[0:8]), " ")
	ext := strings.TrimRight(string(sn[8:11]), " ")
	if ext == "" {
		return base
	}
	return base + "." + ext
}

// dirEntry is a decoded 32-byte FAT directory entry.
type dirEntry struct {
	name    shortName
	attr    uint8
	cluster uint32
	size    uint32

	// Location of the entry on disk, for updates.
	entryCluster uint32 // cluster of the directory holding the entry
	entryOffset  int    // byte offset within the directory chain
}

func (e *dirEntry) isDir() bool { return e.attr&attrDir != 0 }

func (e *dirEntry) encode() []byte {
	b := make([]byte, dirEntrySize)
	copy(b[0:11], e.name[:])
	b[11] = e.attr
	binary.LittleEndian.PutUint16(b[20:22], uint16(e.cluster>>16))
	binary.LittleEndian.PutUint16(b[26:28], uint16(e.cluster&0xFFFF))
	binary.LittleEndian.PutUint32(b[28:32], e.size)
	return b
}

func decodeDirEntry(b []byte) dirEntry {
	var e dirEntry
	copy(e.name[:], b[0:11])
	e.attr = b[11]
	hi := uint32(binary.LittleEndian.Uint16(b[20:22]))
	lo := uint32(binary.LittleEndian.Uint16(b[26:28]))
	e.cluster = hi<<16 | lo
	e.size = binary.LittleEndian.Uint32(b[28:32])
	return e
}

// FileInfo describes a directory entry to callers, mirroring the shape of
// io/fs.FileInfo without depending on host time semantics.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}
