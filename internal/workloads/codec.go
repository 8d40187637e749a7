package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ---- WordCount serialization --------------------------------------------
//
// Count tables travel between map, reduce and merge as repeated records:
// u32 word length, word bytes, u64 count.

// EncodeCounts serialises a count table with deterministic word order.
func EncodeCounts(counts map[string]uint64) []byte {
	words := make([]string, 0, len(counts))
	size := 0
	for w := range counts {
		words = append(words, w)
		size += 4 + len(w) + 8
	}
	sort.Strings(words)
	out := make([]byte, 0, size)
	var scratch [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(w)))
		out = append(out, scratch[:4]...)
		out = append(out, w...)
		binary.LittleEndian.PutUint64(scratch[:], counts[w])
		out = append(out, scratch[:]...)
	}
	return out
}

// DecodeCountsInto merges a serialised count table into dst.
func DecodeCountsInto(dst map[string]uint64, data []byte) error {
	for off := 0; off < len(data); {
		if off+4 > len(data) {
			return errors.New("workloads: truncated count record header")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+n+8 > len(data) {
			return fmt.Errorf("workloads: truncated count record (len %d)", n)
		}
		word := string(data[off : off+n])
		off += n
		dst[word] += binary.LittleEndian.Uint64(data[off:])
		off += 8
	}
	return nil
}

// CountWords tallies whitespace-separated tokens.
func CountWords(text []byte) map[string]uint64 {
	counts := make(map[string]uint64)
	start := -1
	for i := 0; i <= len(text); i++ {
		isSpace := i == len(text) || text[i] == ' ' || text[i] == '\n' ||
			text[i] == '\t' || text[i] == '\r'
		if isSpace {
			if start >= 0 {
				counts[string(text[start:i])]++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return counts
}

// WordShard assigns a word to one of n reducers.
func WordShard(word string, n int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(word); i++ {
		h ^= uint32(word[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// SplitTextChunks cuts text into n chunks at whitespace boundaries.
func SplitTextChunks(text []byte, n int) [][]byte {
	if n <= 1 {
		return [][]byte{text}
	}
	chunks := make([][]byte, 0, n)
	chunkSize := len(text) / n
	start := 0
	for i := 0; i < n; i++ {
		if i == n-1 {
			chunks = append(chunks, text[start:])
			break
		}
		end := start + chunkSize
		if end >= len(text) {
			end = len(text)
		}
		// Advance to the next whitespace so no word is split.
		for end < len(text) && text[end] != ' ' && text[end] != '\n' {
			end++
		}
		chunks = append(chunks, text[start:end])
		start = end
	}
	return chunks
}

// ---- ParallelSorting helpers ----------------------------------------------

// BytesToU64s reinterprets little-endian bytes as uint64 values (copy).
func BytesToU64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// U64sToBytes serialises values little-endian into a fresh slice.
func U64sToBytes(vals []uint64) []byte {
	out := make([]byte, len(vals)*8)
	putU64s(out, vals)
	return out
}

// putU64s serialises values into dst (len(dst) >= 8*len(vals)).
func putU64s(dst []byte, vals []uint64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], v)
	}
}

// PickPivots samples vals and returns n-1 splitters dividing the value
// space into n roughly equal ranges.
func PickPivots(vals []uint64, n int) []uint64 {
	if n <= 1 {
		return nil
	}
	sampleSize := 1024
	if sampleSize > len(vals) {
		sampleSize = len(vals)
	}
	sample := make([]uint64, sampleSize)
	if sampleSize > 0 {
		step := len(vals) / sampleSize
		if step == 0 {
			step = 1
		}
		for i := 0; i < sampleSize; i++ {
			sample[i] = vals[(i*step)%len(vals)]
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	}
	pivots := make([]uint64, n-1)
	for i := 1; i < n; i++ {
		if sampleSize == 0 {
			pivots[i-1] = 0
			continue
		}
		pivots[i-1] = sample[i*sampleSize/n]
	}
	return pivots
}

// MergeSortedRuns merges pre-sorted runs into one sorted slice.
func MergeSortedRuns(runs [][]uint64) []uint64 {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]uint64, 0, total)
	idx := make([]int, len(runs))
	for len(out) < total {
		best := -1
		var bestVal uint64
		for i, r := range runs {
			if idx[i] >= len(r) {
				continue
			}
			if best == -1 || r[idx[i]] < bestVal {
				best = i
				bestVal = r[idx[i]]
			}
		}
		out = append(out, bestVal)
		idx[best]++
	}
	return out
}

// EncodePivotChunk prepends the pivot header to a value chunk:
// u32 pivot count, pivots, then the chunk bytes.
func EncodePivotChunk(pivots []uint64, chunk []byte) []byte {
	out := make([]byte, 4+len(pivots)*8+len(chunk))
	binary.LittleEndian.PutUint32(out, uint32(len(pivots)))
	putU64s(out[4:], pivots)
	copy(out[4+len(pivots)*8:], chunk)
	return out
}

// DecodePivotChunk splits a pivot-headed chunk back apart. The returned
// chunk aliases data.
func DecodePivotChunk(data []byte) (pivots []uint64, chunk []byte, err error) {
	if len(data) < 4 {
		return nil, nil, errors.New("workloads: truncated pivot header")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data) < 4+n*8 {
		return nil, nil, errors.New("workloads: truncated pivot table")
	}
	pivots = BytesToU64s(data[4 : 4+n*8])
	return pivots, data[4+n*8:], nil
}
