package ratio

import (
	"fmt"
	"strconv"
)

// Vector is the exact concentration-factor (CF) vector of a droplet: fluid i
// occupies num[i] / 2^exp of the droplet's volume. Vectors are kept in
// canonical form (exp minimal), so Equal is a plain component comparison.
// The zero value is an empty vector; construct values with Unit, Ratio.Vector
// or Mix.
type Vector struct {
	num []int64
	exp uint
}

// Unit returns the CF vector of a pure droplet of fluid i out of n fluids
// (CF = 100% in the paper's terms).
func Unit(i, n int) Vector {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("ratio: Unit(%d, %d) out of range", i, n))
	}
	num := make([]int64, n)
	num[i] = 1
	return Vector{num: num, exp: 0}
}

// NewVector builds a vector num[i]/2^exp, canonicalised. The numerators must
// be non-negative and sum to exactly 2^exp (a droplet is always full).
func NewVector(num []int64, exp uint) (Vector, error) {
	if exp > MaxDepth {
		return Vector{}, ErrSumTooLarge
	}
	var sum int64
	for _, v := range num {
		if v < 0 {
			return Vector{}, fmt.Errorf("ratio: negative CF numerator %d", v)
		}
		sum += v
	}
	if sum != int64(1)<<exp {
		return Vector{}, fmt.Errorf("ratio: CF numerators sum to %d, want 2^%d", sum, exp)
	}
	v := Vector{num: append([]int64(nil), num...), exp: exp}
	v.reduce()
	return v, nil
}

// N returns the number of fluids the vector spans.
func (v Vector) N() int { return len(v.num) }

// IsZero reports whether v is the zero (unconstructed) vector.
func (v Vector) IsZero() bool { return v.num == nil }

// Num returns the numerator of fluid i (denominator Denom).
func (v Vector) Num(i int) int64 { return v.num[i] }

// Exp returns the canonical denominator exponent: concentrations are
// Num(i) / 2^Exp().
func (v Vector) Exp() uint { return v.exp }

// Denom returns the canonical denominator 2^Exp().
func (v Vector) Denom() int64 { return int64(1) << v.exp }

// Floats returns the concentrations as floats, each numerator over the
// denominator: the exact CF a sensor reading or a simulated droplet is
// compared with.
func (v Vector) Floats() []float64 {
	cf := make([]float64, len(v.num))
	den := float64(v.Denom())
	for i, n := range v.num {
		cf[i] = float64(n) / den
	}
	return cf
}

// IsPure reports whether the droplet consists of a single fluid, and which.
func (v Vector) IsPure() (fluid int, ok bool) {
	fluid = -1
	for i, n := range v.num {
		if n != 0 {
			if fluid >= 0 {
				return -1, false
			}
			fluid = i
		}
	}
	return fluid, fluid >= 0
}

// Mix returns the CF vector of the droplet obtained by a (1:1) mix-split of
// droplets a and b: the exact component-wise average. Both inputs must span
// the same fluid set.
func Mix(a, b Vector) Vector {
	if len(a.num) != len(b.num) {
		panic(fmt.Sprintf("ratio: Mix of vectors over %d and %d fluids", len(a.num), len(b.num)))
	}
	exp := a.exp
	if b.exp > exp {
		exp = b.exp
	}
	exp++ // averaging halves each input
	num := make([]int64, len(a.num))
	for i := range num {
		num[i] = a.num[i]<<(exp-1-a.exp) + b.num[i]<<(exp-1-b.exp)
	}
	v := Vector{num: num, exp: exp}
	v.reduce()
	return v
}

// reduce divides out common factors of two so exp is minimal.
func (v *Vector) reduce() {
	for v.exp > 0 {
		for _, n := range v.num {
			if n&1 != 0 {
				return
			}
		}
		for i := range v.num {
			v.num[i] >>= 1
		}
		v.exp--
	}
}

// Equal reports exact equality of two CF vectors.
func (v Vector) Equal(o Vector) bool {
	if len(v.num) != len(o.num) || v.exp != o.exp {
		return false
	}
	for i, n := range v.num {
		if n != o.num[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key for vector identity.
// Hot map lookups should prefer the allocation-free uint64 Hash (packed.go);
// Key remains for human-readable identity (move logs, droplet ledgers).
func (v Vector) Key() string {
	return string(v.AppendKey(make([]byte, 0, 4+8*len(v.num))))
}

// AppendKey appends the bytes of Key to b: the allocation-free form for
// callers that order or group many vectors by key.
func (v Vector) AppendKey(b []byte) []byte {
	b = append(b, 'e')
	b = strconv.AppendUint(b, uint64(v.exp), 10)
	for _, n := range v.num {
		b = append(b, ':')
		b = strconv.AppendInt(b, n, 10)
	}
	return b
}

// errRescale reports a rescale to a coarser denominator than the vector's
// canonical one.
func errRescale(have, want uint) error {
	return fmt.Errorf("ratio: vector needs denominator 2^%d, cannot rescale to 2^%d", have, want)
}

// AtDepth returns the numerators rescaled to denominator 2^d. It fails if
// the vector needs a finer scale than 2^d.
func (v Vector) AtDepth(d uint) ([]int64, error) {
	if d < v.exp {
		return nil, errRescale(v.exp, d)
	}
	if d > MaxDepth {
		return nil, ErrSumTooLarge
	}
	out := make([]int64, len(v.num))
	if err := v.AtDepthInto(out, d); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the vector as "<n1:n2:...:nk>/2^e".
func (v Vector) String() string {
	b := make([]byte, 0, 8+8*len(v.num))
	b = append(b, '<')
	for i, n := range v.num {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	b = append(b, '>', '/')
	b = strconv.AppendInt(b, v.Denom(), 10)
	return string(b)
}
