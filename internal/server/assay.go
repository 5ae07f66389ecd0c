package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/fleet"
)

// errFleetDisabled answers /v1/assay on a server started without a fleet.
// Mapped to HTTP 501.
var errFleetDisabled = errors.New("server: no chip fleet configured")

// AssayRequest is the JSON body of POST /v1/assay: a plan spec the fleet
// scheduler places on a chip and executes closed-loop. Session routing does
// not apply — assays are fleet-scheduled, one chip placement per request.
type AssayRequest struct {
	PlanRequest
	// Class is the contamination class of the assay's droplet stream; assays
	// of one class may share a chip, different classes may not (and a class
	// change on a chip charges a wash pass). Defaults to the ratio string.
	Class string `json:"class,omitempty"`
}

// AssayResponse is the JSON body answering /v1/assay.
type AssayResponse struct {
	Chip          string  `json:"chip"`
	Attempts      int     `json:"attempts"`
	Reassignments int     `json:"reassignments,omitempty"`
	Washed        bool    `json:"washed,omitempty"`
	WashCycles    int     `json:"wash_cycles,omitempty"`
	MixersGranted int     `json:"mixers_granted"`
	Demand        int     `json:"demand"`
	Injected      int     `json:"injected"`
	Detected      int     `json:"detected"`
	Recovered     int     `json:"recovered"`
	Retries       int     `json:"retries"`
	Replays       int     `json:"replays"`
	Degradations  int     `json:"degradations"`
	RunCycles     int     `json:"run_cycles"`
	RunEmitted    int     `json:"run_emitted"`
	MaxCFError    float64 `json:"max_cf_error"`
}

// check refuses session routing: assays are fleet-scheduled.
func (r *AssayRequest) check() error {
	if r.Session != "" {
		return errors.New("assays are fleet-scheduled; session routing does not apply")
	}
	return nil
}

// serveAssay answers POST /v1/assay: schedule the assay over the chip
// fleet, execute it closed-loop on the placed chip, reassigning across
// chips on unrecoverable failure. Fleet saturation maps to 429, a hopeless
// fleet to 503 (both with Retry-After), an assay that failed everywhere to
// 502 with the last chip error.
func (s *Server) serveAssay(ctx context.Context, r *http.Request) (any, error) {
	if s.fleet == nil {
		return nil, errFleetDisabled
	}
	var req AssayRequest
	spec, ctx, cancel, err := s.intake(ctx, r, &req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	res, err := s.fleet.Run(ctx, fleet.AssaySpec{
		Target:    spec.target,
		Algorithm: spec.algorithm,
		Scheduler: spec.scheduler,
		Mixers:    spec.mixers,
		Storage:   spec.storage,
		Demand:    spec.demand,
		Class:     req.Class,
		PlanCache: s.planCache,
	})
	if err != nil {
		return nil, err
	}
	rep := res.Report
	return AssayResponse{
		Chip:          res.Chip,
		Attempts:      res.Attempts,
		Reassignments: res.Reassignments,
		Washed:        res.Washed,
		WashCycles:    res.WashCycles,
		MixersGranted: res.MixersGranted,
		Demand:        spec.demand,
		Injected:      rep.Injected,
		Detected:      rep.Detected,
		Recovered:     rep.Recovered,
		Retries:       rep.Retries,
		Replays:       rep.Replays,
		Degradations:  rep.Degradations,
		RunCycles:     rep.TotalCycles,
		RunEmitted:    rep.Emitted,
		MaxCFError:    rep.MaxCFError(),
	}, nil
}
