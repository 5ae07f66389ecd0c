// Package dilution implements the high-throughput dilution engine of Roy et
// al. (IET Computers & Digital Techniques, 2013) — reference [20] of the DAC
// 2014 droplet-streaming paper and the only prior work supporting MDST, for
// the special case N = 2. Dilution prepares a sample at a target
// concentration factor CF = c/2^d by mixing it with a buffer (e.g. distilled
// water); streaming many droplets of one CF is exactly the two-fluid
// instance of the mixing-forest machinery, which this package wraps in
// CF-oriented vocabulary.
package dilution

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// Target is a dilution goal: the sample at concentration Num/2^Depth,
// the remainder buffer.
type Target struct {
	// Num is the CF numerator c, 0 < c < 2^Depth.
	Num int64
	// Depth is the accuracy level d.
	Depth int
}

// Validation errors.
var (
	ErrBadCF    = errors.New("dilution: CF numerator must satisfy 0 < c < 2^d")
	ErrBadDepth = errors.New("dilution: depth must be in [1, 62]")
)

// Ratio converts the target CF into the two-fluid mixture ratio
// sample : buffer = c : 2^d - c.
func (t Target) Ratio() (ratio.Ratio, error) {
	if t.Depth < 1 || t.Depth > ratio.MaxDepth {
		return ratio.Ratio{}, ErrBadDepth
	}
	total := int64(1) << uint(t.Depth)
	if t.Num <= 0 || t.Num >= total {
		return ratio.Ratio{}, fmt.Errorf("%w: c=%d, d=%d", ErrBadCF, t.Num, t.Depth)
	}
	r, err := ratio.New(t.Num, total-t.Num)
	if err != nil {
		return ratio.Ratio{}, err
	}
	return r.WithNames("sample", "buffer")
}

// CF returns the concentration factor as a float in (0, 1), for reporting.
func (t Target) CF() float64 {
	return float64(t.Num) / float64(int64(1)<<uint(t.Depth))
}

// FromFraction approximates a desired concentration (0 < cf < 1) at
// accuracy level d by rounding to the nearest c/2^d, clamped inside (0, 1).
func FromFraction(cf float64, d int) (Target, error) {
	if d < 1 || d > ratio.MaxDepth {
		return Target{}, ErrBadDepth
	}
	if cf <= 0 || cf >= 1 {
		return Target{}, fmt.Errorf("%w: cf=%g", ErrBadCF, cf)
	}
	total := int64(1) << uint(d)
	c := int64(cf*float64(total) + 0.5)
	if c < 1 {
		c = 1
	}
	if c > total-1 {
		c = total - 1
	}
	return Target{Num: c, Depth: d}, nil
}

// Config describes the dilution engine's chip resources.
type Config struct {
	// Mixers is the number of on-chip mixers (0 = Mlb of the dilution tree).
	Mixers int
	// Storage is the storage-unit budget (0 = unlimited).
	Storage int
	// Scheduler selects MMS or SRS (default MMS).
	Scheduler stream.Scheduler
}

// Engine streams droplets of one dilution target on demand.
type Engine struct {
	target Target
	inner  *core.Engine
}

// New builds a dilution engine for the target CF.
func New(t Target, cfg Config) (*Engine, error) {
	r, err := t.Ratio()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(core.Config{
		Target:    r,
		Algorithm: core.MM, // the bit-scan dilution tree is MM at N=2
		Scheduler: cfg.Scheduler,
		Mixers:    cfg.Mixers,
		Storage:   cfg.Storage,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{target: t, inner: inner}, nil
}

// Target returns the engine's dilution goal.
func (e *Engine) Target() Target { return e.target }

// Mixers returns the resolved mixer count.
func (e *Engine) Mixers() int { return e.inner.Mixers() }

// Request plans n further droplets at the target CF.
func (e *Engine) Request(n int) (*core.Batch, error) { return e.inner.Request(n) }

// Emitted and Elapsed report the engine's running totals.
func (e *Engine) Emitted() int { return e.inner.Emitted() }
func (e *Engine) Elapsed() int { return e.inner.Elapsed() }

// Emissions lists all planned emission events on the absolute timeline.
func (e *Engine) Emissions() []stream.Emission { return e.inner.Emissions() }

// SampleUsage reports how many sample and buffer droplets the plans consume
// so far — the dilution literature's headline metric (sample is precious,
// buffer is cheap).
func (e *Engine) SampleUsage() (sample, buffer int64) {
	for _, b := range e.inner.Batches() {
		for _, p := range b.Result.Passes {
			st := p.Plan.Stats
			sample += st.Inputs[0]
			buffer += st.Inputs[1]
		}
	}
	return sample, buffer
}
