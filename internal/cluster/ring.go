package cluster

import (
	"math"
	"sort"
)

// The ring is weighted rendezvous hashing (highest random weight,
// Thaler & Ravishankar) with the logarithm method: each (node, key)
// pair hashes to a uniform draw u in (0,1) and scores
//
//	score = -weight / ln(u)
//
// The node with the highest score owns the key. Because every node
// keeps its own independent draw per key, adding or removing a node
// only moves the keys whose new maximum is the joining node (or whose
// owner left): on an N+1-node ring at equal weights, an expected 1/(N+1)
// of keys move and at least (N-1)/N keep their node — the stability
// property the scale tests assert. Per-node weights reshape the
// distribution smoothly: halving a node's weight halves its expected
// keyspace share without disturbing the draws of other (node, key)
// pairs.

// fnv64 is FNV-1a over the bytes of s — stable across processes and
// architectures, which keeps ring assignment identical on every
// gateway replica without coordination.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the murmur3 finalizer. FNV-1a mixes its low bits well but
// leaves the high bits of short, similar inputs (node-0, node-1, ...)
// correlated; the draw uses the top 53 bits, so it needs an avalanche
// pass.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// draw maps (node, key) to a uniform float in (0,1). The top 53 bits
// of the mixed hash fill the float64 mantissa exactly; +1 on the
// numerator keeps the draw strictly positive so ln(u) is finite and
// negative.
func draw(node, key string) float64 {
	h := mix64(fnv64(node + "\x00" + key))
	return (float64(h>>11) + 1) / float64(uint64(1)<<53+1)
}

// score is the weighted rendezvous score for node owning key. Higher
// wins. Non-positive weights are clamped to a tiny floor so a fully
// damped node still ranks (last) instead of disappearing from the
// failover order.
func score(node, key string, weight float64) float64 {
	if weight <= 0 {
		weight = 1e-9
	}
	return -weight / math.Log(draw(node, key))
}

// Ranked is one node in a key's rendezvous order.
type Ranked struct {
	ID     string
	Score  float64
	Weight float64
}

// Rank orders the node IDs for key by descending rendezvous score.
// weightFor supplies each node's damped weight (nil = equal weights).
// Ties (identical floats are astronomically unlikely, but determinism
// must not hinge on that) break by node ID so every replica computes
// the same order.
func Rank(key string, nodes []string, weightFor func(id string) float64) []Ranked {
	out := make([]Ranked, 0, len(nodes))
	for _, id := range nodes {
		w := 1.0
		if weightFor != nil {
			w = weightFor(id)
		}
		out = append(out, Ranked{ID: id, Score: score(id, key, w), Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Owner returns the top-ranked node for key, or "" when nodes is empty.
func Owner(key string, nodes []string, weightFor func(id string) float64) string {
	r := Rank(key, nodes, weightFor)
	if len(r) == 0 {
		return ""
	}
	return r[0].ID
}
