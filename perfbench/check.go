package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/server"
)

// errShortPassStorage marks a known planner defect: the final, shorter
// pass of a storage-limited plan is planned without checking it against
// the storage budget, and storage use is not monotone in demand, so it can
// exceed q'. Runs count and print it; it does not fail them.
var errShortPassStorage = errors.New("final short pass exceeds the storage budget")

// checkResponse verifies one 200 response against the paper's closed forms,
// using only the request and the response fields — never the server's own
// audit. elapsed is the client-tracked session timeline before this batch
// (session requests only). The decoded response is returned whenever the
// body decodes, with or without a check error.
func checkResponse(rq *request, body []byte, elapsed int) (*server.StreamResponse, error) {
	var resp server.StreamResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable response: %v", err)
	}
	return &resp, checkFields(rq, &resp, elapsed)
}

func checkFields(rq *request, resp *server.StreamResponse, elapsed int) error {
	req := &rq.Req
	d := req.Demand
	if resp.Demand != d {
		return fmt.Errorf("demand %d echoed as %d", d, resp.Demand)
	}
	// Every pass emits an even number of targets (two per component tree)
	// and only the last pass can round up, so emitted = 2⌈D/2⌉.
	if want := d + d%2; resp.Emitted != want {
		return fmt.Errorf("emitted %d for demand %d, want %d", resp.Emitted, d, want)
	}
	if len(resp.Passes) == 0 {
		return fmt.Errorf("no passes")
	}
	perPass := d
	if rq.Path == "/v1/stream" {
		perPass = resp.MaxSinglePassDemand
		if perPass < 2 || perPass > d+d%2 {
			return fmt.Errorf("max_single_pass_demand %d outside [2, %d]", perPass, d+d%2)
		}
	}
	if want := (d + perPass - 1) / perPass; len(resp.Passes) != want {
		return fmt.Errorf("%d passes for D=%d, D'=%d, want ⌈D/D'⌉ = %d", len(resp.Passes), d, perPass, want)
	}
	depth, err := ratioDepth(resp.Ratio)
	if err != nil {
		return err
	}
	next, cycles, emitted, allPeriodic := 1, 0, 0, true
	var overflow error
	for k, p := range resp.Passes {
		if p.StartCycle != next {
			return fmt.Errorf("pass %d starts at cycle %d, want %d (passes must tile)", k, p.StartCycle, next)
		}
		if p.Cycles <= 0 || p.Demand <= 0 || p.Demand%2 != 0 {
			return fmt.Errorf("pass %d: %d cycles, %d targets", k, p.Cycles, p.Demand)
		}
		if req.Storage > 0 && p.Storage > req.Storage {
			if k < len(resp.Passes)-1 || p.Demand >= perPass {
				return fmt.Errorf("pass %d uses %d storage units of %d", k, p.Storage, req.Storage)
			}
			overflow = fmt.Errorf("%w: pass %d of %d targets uses %d units of %d", errShortPassStorage, k, p.Demand, p.Storage, req.Storage)
		}
		next += p.Cycles
		cycles += p.Cycles
		emitted += p.Demand
		allPeriodic = allPeriodic && p.Demand%(1<<depth) == 0
	}
	if cycles != resp.TotalCycles || emitted != resp.Emitted {
		return fmt.Errorf("passes sum to %d cycles/%d targets, totals say %d/%d", cycles, emitted, resp.TotalCycles, resp.Emitted)
	}
	if resp.TotalInputs != int64(resp.Emitted)+resp.TotalWaste || resp.TotalWaste < 0 {
		return fmt.Errorf("inputs %d != targets %d + waste %d", resp.TotalInputs, resp.Emitted, resp.TotalWaste)
	}
	// Zero-waste theorem (§4): on the MM base every droplet is consumed when
	// each pass emits a multiple of 2^d.
	if resp.Algorithm == "MM" && allPeriodic && resp.TotalWaste != 0 {
		return fmt.Errorf("waste %d on MM with pass demands ≡ 0 mod 2^%d", resp.TotalWaste, depth)
	}
	if resp.FirstEmission < 1 || resp.FirstEmission > resp.TotalCycles {
		return fmt.Errorf("first emission at cycle %d of %d", resp.FirstEmission, resp.TotalCycles)
	}
	if rq.Path == "/v1/stream" {
		sum := 0
		for _, em := range resp.Emissions {
			sum += em.Count
		}
		if sum != resp.Emitted || len(resp.Emissions) == 0 || resp.Emissions[0].Cycle != resp.FirstEmission {
			return fmt.Errorf("emission timeline sums to %d targets, first at %v", sum, resp.Emissions)
		}
	}
	if !strings.EqualFold(resp.Scheduler, orDefault(req.Scheduler, "MMS")) || resp.Mixers < 1 {
		return fmt.Errorf("scheduler %q mixers %d for request %q", resp.Scheduler, resp.Mixers, req.Scheduler)
	}
	if req.ErrorAware {
		if !resp.ErrorAware || resp.PredictedWorstErr < resp.PredictedExpectedErr || resp.PredictedExpectedErr < 0 {
			return fmt.Errorf("error-aware plan predicts worst %g, expected %g", resp.PredictedWorstErr, resp.PredictedExpectedErr)
		}
	} else if resp.Algorithm != orDefault(req.Algorithm, "MM") {
		return fmt.Errorf("algorithm %q for request %q", resp.Algorithm, req.Algorithm)
	}
	if req.Session != "" && (resp.Session != req.Session || resp.StartCycle != elapsed+1) {
		return fmt.Errorf("session %q batch starts at cycle %d, want elapsed+1 = %d", resp.Session, resp.StartCycle, elapsed+1)
	}
	return overflow
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// ratioDepth returns d with 2^d the ratio-sum of a colon-form ratio.
func ratioDepth(s string) (int, error) {
	var sum uint64
	for _, f := range strings.Split(s, ":") {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("bad ratio %q in response", s)
		}
		sum += v
	}
	if sum&(sum-1) != 0 {
		return 0, fmt.Errorf("ratio %q sums to %d, not a power of two", s, sum)
	}
	return bits.TrailingZeros64(sum), nil
}

// digest accumulates the canonical form of responses: re-encoded with the
// fields that legitimately vary between runs (coalesced, session_owner)
// cleared.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(resp *server.StreamResponse) {
	c := *resp
	c.Coalesced = false
	c.SessionOwner = ""
	b, err := json.Marshal(&c)
	if err != nil {
		panic(err) // StreamResponse has no unmarshalable fields
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
