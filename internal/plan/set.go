package plan

import (
	"iter"
	"math/bits"
	"slices"
)

// maxRelations is the largest tree a Set can describe: one bit per
// NodeID. AddChild enforces it, so every NodeID of every tree fits.
const maxRelations = 64

// Set is a set of relations of one join tree — typically the prefix a
// left-deep plan has joined so far — as a bitmask: bit i is NodeID i.
// It is a value: comparable, usable as a map key, and iterated in
// ascending NodeID order, so anything computed from a Set is a function
// of the set alone.
type Set uint64

// SetOf returns the set holding exactly ids.
func SetOf(ids ...NodeID) Set {
	var s Set
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

// Has reports whether id is in s.
func (s Set) Has(id NodeID) bool { return s>>uint(id)&1 != 0 }

// With returns s with id added.
func (s Set) With(id NodeID) Set { return s | 1<<uint(id) }

// Without returns s with id removed.
func (s Set) Without(id NodeID) Set { return s &^ (1 << uint(id)) }

// Len returns the number of relations in s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// All iterates the members of s in ascending NodeID order.
func (s Set) All() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for ; s != 0; s &= s - 1 {
			if !yield(NodeID(bits.TrailingZeros64(uint64(s)))) {
				return
			}
		}
	}
}

// IDs returns the members of s in ascending NodeID order.
func (s Set) IDs() []NodeID {
	return slices.AppendSeq(make([]NodeID, 0, s.Len()), s.All())
}
