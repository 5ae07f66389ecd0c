// Package ratio provides exact arithmetic for target mixture ratios and
// concentration-factor (CF) vectors on digital microfluidic biochips.
//
// A target ratio a1:a2:...:aN describes the desired volumetric proportions of
// N input fluids. Following the (1:1) mix-split model of Thies et al. and
// Roy et al. (DAC 2014), a ratio is realisable by a mixing tree of depth d
// only if its ratio-sum L = sum(ai) equals 2^d. All arithmetic in this
// package is exact: concentrations are rationals whose denominators are
// powers of two, so no floating-point error can accumulate across mix-split
// chains.
package ratio

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxDepth is the largest supported accuracy level d. Ratio sums are bounded
// by 2^MaxDepth; 62 keeps every sum representable in an int64.
const MaxDepth = 62

// Ratio is an integer target ratio a1:a2:...:aN. The zero value is invalid;
// construct values with New, Parse or FromPercent.
type Ratio struct {
	parts []int64
	names []string // optional fluid names; nil or len == len(parts)
	colon string   // parts in colon form, rendered once (see String)
}

// Common construction errors.
var (
	ErrEmpty         = errors.New("ratio: no parts")
	ErrNonPositive   = errors.New("ratio: parts must be positive")
	ErrSumNotPow2    = errors.New("ratio: ratio-sum must be a power of two")
	ErrSumTooLarge   = fmt.Errorf("ratio: ratio-sum exceeds 2^%d", MaxDepth)
	ErrBadNames      = errors.New("ratio: names length must match parts length")
	ErrBadPercent    = errors.New("ratio: percentages must be positive and sum to 100")
	ErrDepthTooSmall = errors.New("ratio: accuracy level too small for the number of fluids")
)

// New returns the ratio with the given parts. It fails unless every part is
// positive and the ratio-sum is a power of two no larger than 2^MaxDepth.
func New(parts ...int64) (Ratio, error) {
	r := Ratio{parts: append([]int64(nil), parts...)}
	if err := r.validate(); err != nil {
		return Ratio{}, err
	}
	r.colon = render(r.parts)
	return r, nil
}

// MustNew is New for compile-time-known literals (tests, tables, examples);
// it panics on error. Never feed it user or file input — route that through
// New, which returns a diagnosable error instead of crashing the process.
func MustNew(parts ...int64) Ratio {
	r, err := New(parts...)
	if err != nil {
		panic(err)
	}
	return r
}

// WithNames returns a copy of r carrying the given fluid names.
func (r Ratio) WithNames(names ...string) (Ratio, error) {
	if len(names) != len(r.parts) {
		return Ratio{}, ErrBadNames
	}
	c := r.Clone()
	c.names = append([]string(nil), names...)
	return c, nil
}

// Parse reads a ratio in the colon-separated form used throughout the paper,
// e.g. "2:1:1:1:1:1:9". Whitespace around the numbers is ignored, and each
// part may carry an explicit '+' sign or leading zeros ("1:02" is 1:2, as
// any integer parser would read it). Malformed input yields an error naming
// both the offending part and the full input, so command-line callers can
// print it verbatim as their diagnostic.
func Parse(s string) (Ratio, error) {
	fields := strings.Split(s, ":")
	parts := make([]int64, 0, len(fields))
	for i, f := range fields {
		v, err := parsePart(strings.TrimSpace(f))
		if err != nil {
			return Ratio{}, fmt.Errorf("ratio: invalid part %q (position %d of %q; %v)", strings.TrimSpace(f), i+1, s, err)
		}
		parts = append(parts, v)
	}
	r, err := New(parts...)
	if err != nil {
		return Ratio{}, fmt.Errorf("%w (parsing %q)", err, s)
	}
	return r, nil
}

// parsePart reads one ratio part: an optional '+' sign followed by decimal
// digits. The historical Sscanf+Sprintf round-trip rejected valid spellings
// like "02" and "+3" (their canonical re-rendering differs from the input);
// explicit character validation plus strconv.ParseInt accepts every integer
// spelling while still rejecting embedded garbage ("2x"), empty parts, signs
// without digits and overflow.
func parsePart(f string) (int64, error) {
	digits := strings.TrimPrefix(f, "+")
	if digits == "" {
		return 0, errors.New("want positive integers separated by colons")
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, errors.New("want positive integers separated by colons")
		}
	}
	v, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		// Only ErrRange is reachable: the character scan guarantees syntax.
		return 0, fmt.Errorf("%v", errors.Unwrap(err))
	}
	return v, nil
}

// MustParse is Parse for compile-time-known literals (tests, tables,
// examples); it panics on error. Never feed it user or file input — route
// that through Parse, which returns a diagnosable error instead of crashing
// the process.
func MustParse(s string) Ratio {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

func (r Ratio) validate() error {
	if len(r.parts) == 0 {
		return ErrEmpty
	}
	var sum int64
	for _, p := range r.parts {
		if p <= 0 {
			return ErrNonPositive
		}
		sum += p
		if sum < 0 || sum > int64(1)<<MaxDepth {
			return ErrSumTooLarge
		}
	}
	if sum&(sum-1) != 0 {
		return ErrSumNotPow2
	}
	if r.names != nil && len(r.names) != len(r.parts) {
		return ErrBadNames
	}
	return nil
}

// N returns the number of constituent fluids.
func (r Ratio) N() int { return len(r.parts) }

// Part returns the i-th ratio part a_{i+1}.
func (r Ratio) Part(i int) int64 { return r.parts[i] }

// Parts returns a copy of all ratio parts.
func (r Ratio) Parts() []int64 { return append([]int64(nil), r.parts...) }

// Sum returns the ratio-sum L = sum(ai).
func (r Ratio) Sum() int64 {
	var sum int64
	for _, p := range r.parts {
		sum += p
	}
	return sum
}

// Depth returns the accuracy level d with 2^d = Sum().
func (r Ratio) Depth() int {
	return bits.TrailingZeros64(uint64(r.Sum()))
}

// Name returns the name of fluid i, defaulting to "x1", "x2", ... as in the
// paper when no explicit names were attached.
func (r Ratio) Name(i int) string {
	if r.names != nil {
		return r.names[i]
	}
	return "x" + strconv.Itoa(i+1)
}

// Named reports whether explicit fluid names were attached (WithNames).
func (r Ratio) Named() bool { return r.names != nil }

// Names returns all fluid names (explicit or defaulted).
func (r Ratio) Names() []string {
	out := make([]string, len(r.parts))
	for i := range out {
		out[i] = r.Name(i)
	}
	return out
}

// Clone returns a deep copy of r.
func (r Ratio) Clone() Ratio {
	c := Ratio{parts: append([]int64(nil), r.parts...), colon: r.colon}
	if r.names != nil {
		c.names = append([]string(nil), r.names...)
	}
	return c
}

// Equal reports whether r and o have identical parts (names are ignored).
func (r Ratio) Equal(o Ratio) bool {
	if len(r.parts) != len(o.parts) {
		return false
	}
	for i, p := range r.parts {
		if p != o.parts[i] {
			return false
		}
	}
	return true
}

// Normalized returns the ratio divided by the greatest common divisor of its
// parts. Because the ratio-sum is a power of two, the gcd is also a power of
// two and the normalized ratio-sum stays a power of two; normalization lowers
// the accuracy level to the minimum that represents the ratio exactly.
func (r Ratio) Normalized() Ratio {
	g := r.parts[0]
	for _, p := range r.parts[1:] {
		g = gcd(g, p)
	}
	// Only strip powers of two: an odd gcd>1 cannot occur with a pow-2 sum,
	// but guard anyway so Normalized never breaks the sum invariant.
	g = g & (-g)
	c := r.Clone()
	if g > 1 {
		for i := range c.parts {
			c.parts[i] /= g
		}
		c.colon = render(c.parts)
	}
	return c
}

// String returns the ratio in the paper's colon notation, rendered from the
// parts ("02:+1:1" parses to "2:1:1") once, by New or Normalized, so every
// cache and request key reads it without allocating.
func (r Ratio) String() string { return r.colon }

// render writes parts in colon notation.
func render(parts []int64) string {
	var buf [64]byte // on the stack: the returned string is the one allocation
	b := buf[:0]
	for i, p := range parts {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendInt(b, p, 10)
	}
	return string(b)
}

// Vector returns the exact CF vector of the target mixture: fluid i has
// concentration Part(i) / 2^Depth(). The result is canonical, so the vector
// of 2:2 equals the vector of 1:1.
func (r Ratio) Vector() Vector {
	v := Vector{num: r.Parts(), exp: uint(r.Depth())}
	v.reduce()
	return v
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
