package schema

import (
	"math/bits"
	"strconv"
	"strings"
)

// Bitset is a small fixed-width bitset used to track which ranking
// predicates have been evaluated for a tuple (the set P of the paper) and
// as the SP component of optimizer signatures. Queries are limited to 64
// ranking predicates, far beyond anything practical.
type Bitset uint64

// MaxBits is the number of distinct predicate slots a Bitset can track.
const MaxBits = 64

// Bit returns a bitset with only bit i set.
func Bit(i int) Bitset { return 1 << uint(i) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// With returns b with bit i set.
func (b Bitset) With(i int) Bitset { return b | 1<<uint(i) }

// Without returns b with bit i cleared.
func (b Bitset) Without(i int) Bitset { return b &^ (1 << uint(i)) }

// Union returns the union of two bitsets.
func (b Bitset) Union(o Bitset) Bitset { return b | o }

// Intersect returns the intersection of two bitsets.
func (b Bitset) Intersect(o Bitset) Bitset { return b & o }

// Diff returns the bits in b that are not in o.
func (b Bitset) Diff(o Bitset) Bitset { return b &^ o }

// SubsetOf reports whether every bit of b is also set in o.
func (b Bitset) SubsetOf(o Bitset) bool { return b&^o == 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int { return bits.OnesCount64(uint64(b)) }

// Each calls fn for every set bit in ascending order.
func (b Bitset) Each(fn func(i int)) {
	for x := uint64(b); x != 0; {
		i := bits.TrailingZeros64(x)
		fn(i)
		x &^= 1 << uint(i)
	}
}

// Indices returns the set bit positions in ascending order.
func (b Bitset) Indices() []int {
	out := make([]int, 0, b.Count())
	b.Each(func(i int) { out = append(out, i) })
	return out
}

// AllBits returns a bitset with bits [0,n) set.
func AllBits(n int) Bitset {
	if n >= MaxBits {
		return ^Bitset(0)
	}
	return Bitset(1)<<uint(n) - 1
}

// String renders the bitset as "{0,2,5}".
func (b Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.Each(func(i int) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}
