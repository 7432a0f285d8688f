package core

import (
	"fmt"
	"sort"

	"repro/internal/encoding"
)

// ShardMap partitions the class-code space of an index into contiguous
// intervals, one per shard. The paper's uniform encoding makes a class plus
// all of its subclasses one contiguous code interval, so splitting at class
// codes preserves the single-scan subtree property per shard: every entry of
// one class lands in exactly one shard (routing looks at the entry's
// position-0 code — the actual class of the terminal object), and a subtree
// query touches exactly the shards whose intervals intersect the subtree's
// code interval.
//
// A map with n shards stores n-1 ascending boundary codes; shard i covers
// codes c with bounds[i-1] <= c < bounds[i] (the first and last intervals
// are open toward -inf/+inf, so every code — including codes assigned to
// classes added after the map was built — routes somewhere).
type ShardMap struct {
	bounds []encoding.Code
}

// NewShardMap splits the given ascending, distinct class codes into at most
// n contiguous groups of near-equal class count and returns the resulting
// map. The effective shard count is min(n, len(codes)), and never below 1.
func NewShardMap(codes []encoding.Code, n int) *ShardMap {
	if n > len(codes) {
		n = len(codes)
	}
	if n < 1 {
		n = 1
	}
	m := &ShardMap{}
	for i := 1; i < n; i++ {
		m.bounds = append(m.bounds, codes[i*len(codes)/n])
	}
	return m
}

// ShardMapFromBounds rebuilds a map from boundary codes previously obtained
// with Bounds (the durable form a manifest persists, so routing stays stable
// across reopens even when the schema has since evolved). The bounds must be
// strictly ascending.
func ShardMapFromBounds(bounds []encoding.Code) (*ShardMap, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("core: shard bounds not strictly ascending at %d (%q >= %q)",
				i, bounds[i-1], bounds[i])
		}
	}
	return &ShardMap{bounds: append([]encoding.Code(nil), bounds...)}, nil
}

// Shards returns the number of shards the map routes to.
func (m *ShardMap) Shards() int { return len(m.bounds) + 1 }

// Bounds returns the boundary codes (len = Shards()-1), for persistence.
func (m *ShardMap) Bounds() []encoding.Code {
	return append([]encoding.Code(nil), m.bounds...)
}

// ShardOf routes a class code to its shard.
func (m *ShardMap) ShardOf(code encoding.Code) int {
	return sort.Search(len(m.bounds), func(i int) bool { return code < m.bounds[i] })
}

// ShardRange returns the inclusive shard interval [from, to] intersecting
// the half-open code interval [lo, hi) — the shards a subtree scan must
// visit.
func (m *ShardMap) ShardRange(lo, hi string) (from, to int) {
	from = sort.Search(len(m.bounds), func(i int) bool { return lo < string(m.bounds[i]) })
	to = sort.Search(len(m.bounds), func(i int) bool { return hi <= string(m.bounds[i]) })
	return from, to
}

// ShardOfKey routes a full index key: it skips the encoded attribute value
// and reads the position-0 class code (the terminal object's actual class,
// which comes first in the key layout — the shard key is NOT a key prefix,
// because the attribute value precedes it).
func (m *ShardMap) ShardOfKey(t encoding.AttrType, key []byte) (int, error) {
	_, rest, err := t.SplitValue(key)
	if err != nil {
		return 0, err
	}
	for i, b := range rest {
		if b == encoding.SepByte {
			if i == 0 {
				break
			}
			return m.ShardOf(encoding.Code(rest[:i])), nil
		}
	}
	return 0, fmt.Errorf("core: key has no class code to route on")
}
