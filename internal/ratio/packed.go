package ratio

import "fmt"

// Packed CF-vector arithmetic: allocation-free word operations over the same
// exact representation Vector uses (numerators over a 2^exp denominator).
// The paper's arithmetic invites this layout — every concentration produced
// by (1:1) mix-split chains is an integer over a power-of-two denominator —
// so a CF vector is just a fixed-width run of int64 words plus one exponent.
// The planning hot path (internal/forest, internal/sched, internal/stream)
// keeps numerators in caller-provided flat arenas and runs Mix/reduce/rescale
// in place; Vector remains the immutable boxed form for APIs and goldens.
//
// Invariant shared with Vector: words are canonical, i.e. exp is minimal
// (some numerator is odd, or exp == 0). Every function here preserves it.

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// hashWord folds one 64-bit value into an FNV-1a state byte by byte.
func hashWord(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnv64Prime
	}
	return h
}

// HashWords returns the 64-bit FNV-1a hash of a canonical packed vector:
// the exponent followed by every numerator word. It is the packed twin of
// Vector.Hash — identical content yields identical hashes — and replaces
// the fmt-built string Key() on hot map lookups: hashing a 7-fluid vector
// is a handful of integer multiplies instead of a fmt.Fprintf string build.
func HashWords(num []int64, exp uint) uint64 {
	h := hashWord(fnv64Offset, uint64(exp))
	for _, n := range num {
		h = hashWord(h, uint64(n))
	}
	return h
}

// Hash returns the 64-bit FNV-1a hash of the vector's canonical content.
// Equal vectors hash identically; distinct vectors collide with the usual
// 2^-64 FNV odds, so hash-keyed pools must confirm candidates with Equal
// (see forest.MultiBuilder).
func (v Vector) Hash() uint64 { return HashWords(v.num, v.exp) }

// ReduceWords canonicalises a packed vector in place — divides out common
// factors of two so the exponent is minimal — and returns the new exponent.
func ReduceWords(num []int64, exp uint) uint {
	for exp > 0 {
		acc := int64(0)
		for _, n := range num {
			acc |= n
		}
		if acc&1 != 0 {
			return exp
		}
		for i := range num {
			num[i] >>= 1
		}
		exp--
	}
	return exp
}

// MixWordsInto writes the exact (1:1) mix-split average of two canonical
// packed vectors into dst and returns the canonical result exponent. All
// three slices must have equal length (dst may alias a or b). It performs no
// allocation: this is the hot-path form of Mix.
func MixWordsInto(dst []int64, a []int64, aExp uint, b []int64, bExp uint) uint {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("ratio: MixWordsInto over mismatched fluid sets")
	}
	exp := aExp
	if bExp > exp {
		exp = bExp
	}
	exp++ // averaging halves each input
	sa := exp - 1 - aExp
	sb := exp - 1 - bExp
	for i := range dst {
		dst[i] = a[i]<<sa + b[i]<<sb
	}
	return ReduceWords(dst, exp)
}

// MixInto computes Mix(a, b) without allocating: the canonical numerators
// are written into dst (len(dst) must equal the fluid count) and the
// canonical exponent is returned. The triple (dst, exp) compares equal to
// Mix(a, b) under EqualWords.
func MixInto(dst []int64, a, b Vector) uint {
	return MixWordsInto(dst, a.num, a.exp, b.num, b.exp)
}

// UnitIn is the arena form of Unit: it writes the pure vector of fluid i
// into dst (len(dst) is the fluid count) and returns a Vector over dst
// itself, without copying. dst must not change while the Vector is in use.
func UnitIn(dst []int64, i int) Vector {
	if i < 0 || i >= len(dst) {
		panic(fmt.Sprintf("ratio: UnitIn(%d) over %d fluids", i, len(dst)))
	}
	clear(dst)
	dst[i] = 1
	return Vector{num: dst}
}

// MixIn is the arena form of Mix: the canonical average of a and b is
// written into dst, which the returned Vector wraps without copying. dst
// must not alias a or b and must not change while the Vector is in use.
func MixIn(dst []int64, a, b Vector) Vector {
	return Vector{num: dst, exp: MixInto(dst, a, b)}
}

// CloneIn copies v into dst (len(dst) must equal N()) and returns a Vector
// over dst, without further copying.
func (v Vector) CloneIn(dst []int64) Vector {
	return Vector{num: dst, exp: v.NumsInto(dst)}
}

// EqualWords reports whether the canonical packed vector (num, exp) equals v.
func (v Vector) EqualWords(num []int64, exp uint) bool {
	if len(v.num) != len(num) || v.exp != exp {
		return false
	}
	for i, n := range v.num {
		if n != num[i] {
			return false
		}
	}
	return true
}

// NumsInto copies the canonical numerators into dst (len(dst) must equal
// N()) and returns the canonical exponent. It is the allocation-free
// unboxing used to seed packed arithmetic from a Vector.
func (v Vector) NumsInto(dst []int64) uint {
	if len(dst) != len(v.num) {
		panic("ratio: NumsInto with wrong-length destination")
	}
	copy(dst, v.num)
	return v.exp
}

// AtDepthInto rescales the vector to denominator 2^d, writing the numerators
// into dst (len(dst) must equal N()). It is AtDepth without the allocation.
func (v Vector) AtDepthInto(dst []int64, d uint) error {
	if d < v.exp {
		return errRescale(v.exp, d)
	}
	if d > MaxDepth {
		return ErrSumTooLarge
	}
	if len(dst) != len(v.num) {
		panic("ratio: AtDepthInto with wrong-length destination")
	}
	for i, n := range v.num {
		dst[i] = n << (d - v.exp)
	}
	return nil
}
