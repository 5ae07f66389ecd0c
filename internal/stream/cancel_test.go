package stream

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/errormodel"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/plancache"
	"repro/internal/ratio"
)

func timeInPast() time.Time { return time.Now().Add(-time.Second) }

// TestRunCtxCanceled pins the planner's cancellation contract: a done
// context abandons the plan with an error wrapping both cancel.ErrCanceled
// and the context cause, at a pass boundary.
func TestRunCtxCanceled(t *testing.T) {
	base, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if _, err := RunCtx(ctx, Config{Base: base, Mixers: 3, Scheduler: SRS}, 20); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("RunCtx error %v does not wrap cancel.ErrCanceled", err)
	}
	if _, err := RunCtx(ctx, Config{Base: base, Mixers: 3, Scheduler: SRS}, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error does not wrap context.Canceled")
	}
	// The storage scan is a cancellation point too.
	if _, err := MaxSinglePassDemandCtx(ctx, Config{Base: base, Mixers: 3, Storage: 4, Scheduler: SRS}, 40); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("MaxSinglePassDemandCtx error %v does not wrap cancel.ErrCanceled", err)
	}
}

// TestRunCtxDeadline asserts deadline expiry surfaces as the typed error
// with the DeadlineExceeded cause preserved.
func TestRunCtxDeadline(t *testing.T) {
	base, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithDeadline(context.Background(), timeInPast())
	defer stop()
	_, err = RunCtx(ctx, Config{Base: base, Mixers: 3, Scheduler: MMS}, 12)
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must wrap both cancel.ErrCanceled and context.DeadlineExceeded", err)
	}
}

// TestRunCtxCanceledText pins the text of an abandoned plan, which a
// server returns in its 503 body: the first cancellation point a request
// reaches names itself, and an error-aware request names its candidate.
// A memoised candidate total reports what planning that candidate would
// have reported, so a warm cache leaves the text unchanged.
func TestRunCtxCanceledText(t *testing.T) {
	r := ratio.MustParse("2:1:1:1:1:1:9")
	var bases []*mixgraph.Graph
	for _, alg := range goldenAlgorithms {
		g, err := alg.build(r)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, g)
	}
	done, stop := context.WithCancel(context.Background())
	stop()
	const pass1 = "stream: pass starting at cycle 1: canceled: context canceled"
	const scan = "stream: demand scan growing tree 1: canceled: context canceled"
	pol := &errormodel.Policy{Params: errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.01}}
	for _, tc := range []struct {
		storage, demand int
		errorAware      bool
		cold, warm      string
	}{
		{0, 20, false, pass1, pass1},
		{6, 20, false, scan, pass1},
		{6, 1, false, scan, pass1},
		{0, 20, true, "stream: error-aware candidate MM: " + pass1, "stream: error-aware candidate MM: " + pass1},
		{6, 20, true, "stream: error-aware candidate MM: " + scan, "stream: error-aware candidate MM: " + pass1},
		{6, 1, true, "stream: error-aware candidate MM: " + scan, "stream: error-aware candidate MM: " + pass1},
	} {
		cfg := Config{Base: bases[0], Mixers: 3, Storage: tc.storage, Scheduler: SRS, Cache: plancache.New(64)}
		if tc.errorAware {
			cfg.ErrorPolicy, cfg.Candidates = pol, bases[1:]
		}
		for _, want := range []string{tc.cold, tc.warm} {
			if _, err := RunCtx(done, cfg, tc.demand); err == nil || err.Error() != want {
				t.Errorf("q'=%d D=%d error-aware=%v: error %v, want %q", tc.storage, tc.demand, tc.errorAware, err, want)
			}
			if _, err := Run(cfg, tc.demand); err != nil {
				t.Fatal(err)
			}
		}
	}
}
