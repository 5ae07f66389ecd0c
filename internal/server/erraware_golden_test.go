package server

import (
	"net/http"
	"testing"

	"repro/internal/plancache"
)

// TestErrorAwareStreamBodies pins the exact bytes of error-aware /v1/stream
// answers, rejections included: the winner's passes, its emission timeline
// and D′, and the predicted error. Every row runs on a fresh server with a
// plan cache of its own, and then once more on the warm one, which must
// answer the same bytes. Each body ends in the encoder's newline.
func TestErrorAwareStreamBodies(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{
			"single pass leaves MM",
			`{"ratio":"26:21:2:2:3:3:199","demand":16,"mixers":4,"error_aware":true,"split_imbalance":0.08,"dispense_error":0.04,"cycle_slack":0.25}`,
			http.StatusOK,
			`{"ratio":"26:21:2:2:3:3:199","algorithm":"MTCS","scheduler":"MMS","mixers":4,"demand":16,"emitted":16,"passes":[{"demand":16,"cycles":9,"storage":4,"start_cycle":1}],"total_cycles":9,"total_inputs":25,"total_waste":9,"first_emission":8,"start_cycle":1,"error_aware":true,"predicted_worst_err":0.11238401795272765,"predicted_expected_err":0.055065303062472204,"emissions":[{"cycle":8,"count":8},{"cycle":9,"count":8}],"max_single_pass_demand":16}`,
		},
		{
			"multi-pass SRS",
			`{"ratio":"26:21:2:2:3:3:199","demand":24,"mixers":4,"storage":3,"scheduler":"srs","error_aware":true,"split_imbalance":0.05,"cycle_slack":0.3}`,
			http.StatusOK,
			`{"ratio":"26:21:2:2:3:3:199","algorithm":"MM","scheduler":"SRS","mixers":4,"storage":3,"demand":24,"emitted":24,"passes":[{"demand":14,"cycles":9,"storage":3,"start_cycle":1},{"demand":10,"cycles":9,"storage":3,"start_cycle":10}],"total_cycles":18,"total_inputs":49,"total_waste":25,"first_emission":8,"start_cycle":1,"error_aware":true,"predicted_worst_err":0.04594572889361414,"predicted_expected_err":0.024713116807364485,"emissions":[{"cycle":8,"count":8},{"cycle":9,"count":6},{"cycle":17,"count":8},{"cycle":18,"count":2}],"max_single_pass_demand":14}`,
		},
		{
			"short final pass",
			`{"ratio":"2:1:1:1:1:1:9","demand":41,"storage":6,"error_aware":true,"split_imbalance":0.05,"dispense_error":0.02}`,
			http.StatusOK,
			`{"ratio":"2:1:1:1:1:1:9","algorithm":"RMA","scheduler":"MMS","mixers":3,"storage":6,"demand":41,"emitted":42,"passes":[{"demand":20,"cycles":9,"storage":6,"start_cycle":1},{"demand":20,"cycles":9,"storage":6,"start_cycle":10},{"demand":2,"cycles":4,"storage":0,"start_cycle":19}],"total_cycles":22,"total_inputs":58,"total_waste":16,"first_emission":6,"start_cycle":1,"error_aware":true,"predicted_worst_err":0.06764199567866508,"predicted_expected_err":0.038521196036838554,"emissions":[{"cycle":6,"count":2},{"cycle":7,"count":6},{"cycle":8,"count":6},{"cycle":9,"count":6},{"cycle":15,"count":2},{"cycle":16,"count":6},{"cycle":17,"count":6},{"cycle":18,"count":6},{"cycle":22,"count":2}],"max_single_pass_demand":20}`,
		},
		{
			"zero slack MMS",
			`{"ratio":"3:4:5:10:10:30:62:132","demand":40,"mixers":3,"storage":8,"error_aware":true,"split_imbalance":0.05}`,
			http.StatusOK,
			`{"ratio":"3:4:5:10:10:30:62:132","algorithm":"RMA","scheduler":"MMS","mixers":3,"storage":8,"demand":40,"emitted":40,"passes":[{"demand":22,"cycles":15,"storage":8,"start_cycle":1},{"demand":18,"cycles":14,"storage":6,"start_cycle":16}],"total_cycles":29,"total_inputs":72,"total_waste":32,"first_emission":12,"start_cycle":1,"error_aware":true,"predicted_worst_err":0.11085616044672547,"predicted_expected_err":0.05932956521168373,"emissions":[{"cycle":12,"count":6},{"cycle":13,"count":6},{"cycle":14,"count":6},{"cycle":15,"count":4},{"cycle":26,"count":2},{"cycle":27,"count":6},{"cycle":28,"count":6},{"cycle":29,"count":4}],"max_single_pass_demand":22}`,
		},
		{
			"storage too small",
			`{"ratio":"26:21:2:2:3:3:199","demand":10,"mixers":4,"storage":1,"error_aware":true,"split_imbalance":0.05}`,
			http.StatusUnprocessableEntity,
			`{"error":"stream: error-aware candidate MM: stream: base tree needs more storage units than available (q'=1)"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{PlanCache: plancache.New(64)})
			for _, pass := range []string{"cold", "warm"} {
				resp, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/stream", tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("%s: status %d, want %d: %s", pass, resp.StatusCode, tc.status, raw)
				}
				if string(raw) != tc.want+"\n" {
					t.Errorf("%s body\n got %s\nwant %s", pass, raw, tc.want)
				}
			}
		})
	}
}
