package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleet"
)

// retryWant is what a status-table row expects of the Retry-After header.
type retryWant int

const (
	retryNone retryWant = iota // the response carries no Retry-After
	retryYes                   // the response carries the configured Retry-After
	retryAny                   // not pinned by this row
)

// statusCase is one request of the endpoint status table and the answer it
// must get.
type statusCase struct {
	name         string
	base         string // server base URL
	method, path string
	body         string
	status       int
	retry        retryWant
	location     string // wanted Location header of a 307
}

// doRaw sends one request without following redirects and returns the
// response with its body read.
func doRaw(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	client := http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestEndpointStatusTable pins the status of every rejection each /v1 route
// gives: the status code, whether Retry-After is set, and that the body is
// the JSON error envelope {"error": "..."}.
func TestEndpointStatusTable(t *testing.T) {
	const retryAfter = "3"
	cfg := Config{RetryAfter: 3e9}

	// plain: no fleet, no artifact tier, no cluster.
	plain, plainTS := newTestServer(t, cfg)
	okPlan := `{"ratio":"1:2:5:8","demand":4,"session":"pinned"}`
	if resp, raw := doRaw(t, http.MethodPost, plainTS.URL+"/v1/plan", okPlan); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed session: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := doRaw(t, http.MethodPost, plainTS.URL+"/v1/plan", `{"ratio":"1:3","demand":4,"session":"fenced"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed fenced session: %d %s", resp.StatusCode, raw)
	}
	sess, release, _ := plain.pool.peek("fenced")
	sess.reqMu.Lock()
	sess.fenced = true
	sess.reqMu.Unlock()
	release()

	// fleet: /v1/assay enabled.
	fleetCfg := cfg
	fleetCfg.Fleet = fleet.New(fleet.Config{Chips: fleet.DefaultChips(1)})
	_, fleetTS := newTestServer(t, fleetCfg)

	// saturated: the only slot taken and the queue full.
	satCfg := cfg
	satCfg.MaxInFlight, satCfg.MaxQueue = 1, 1
	sat, satTS := newTestServer(t, satCfg)
	sat.slots <- struct{}{}
	sat.waiting.Add(1)
	t.Cleanup(func() { sat.waiting.Add(-1); <-sat.slots })

	// draining: a plain server and a clustered one, both drained while idle.
	draining, drainTS := newTestServer(t, cfg)
	soloNode := func(self string) *cluster.Node {
		cn, err := cluster.NewNode(cluster.Config{Self: self})
		if err != nil {
			t.Fatal(err)
		}
		return cn
	}
	drainCfg := cfg
	drainCfg.Cluster = soloNode("drain-solo")
	drainingCl, drainClTS := newTestServer(t, drainCfg)
	for _, s := range []*Server{draining, drainingCl} {
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// recovering: a WAL attached and Recover never called.
	recCfg := cfg
	l, _ := openWAL(t, filepath.Join(t.TempDir(), "rec.wal"))
	t.Cleanup(func() { l.Close() })
	recCfg.WAL, recCfg.Cluster = l, soloNode("rec-solo")
	_, recTS := newTestServer(t, recCfg)

	// cluster: two nodes, one session migrated away from src (tombstoned)
	// and one resident session on src.
	nodes := newTestCluster(t, 2)
	src, dst := nodes[0], nodes[1]
	moved := sessionOwnedBy(t, src.srv.clusterNode.Ring(), src.id)
	planSession(t, src.ts.URL, moved, 6)
	if resp, raw := doRaw(t, http.MethodPost, src.ts.URL+"/v1/session/"+moved+"/migrate?target="+dst.id, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: %d %s", resp.StatusCode, raw)
	}
	resident := "resident"
	for i := 0; src.srv.clusterNode.Owner("session|"+resident) != src.id; i++ {
		resident = fmt.Sprintf("resident-%d", i)
	}
	planSession(t, src.ts.URL, resident, 6)
	adoptConflict := mustFrames(t, sessionRecords(resident, mustSpec(t, PlanRequest{Ratio: "1:3", Demand: 1}), nil)...)

	const addr = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	planBody := `{"ratio":"1:3","demand":4}`
	sessionBody := func(name string) string { return `{"ratio":"1:2:5:8","demand":4,"session":"` + name + `"}` }
	admitted := []string{"/v1/plan", "/v1/stream", "/v1/execute", "/v1/assay", "/v1/artifact/build"}

	var cases []statusCase
	add := func(c statusCase) { cases = append(cases, c) }

	for _, path := range []string{"/v1/plan", "/v1/stream", "/v1/execute"} {
		add(statusCase{name: "bad body", base: plainTS.URL, path: path, body: `{"ratio":`, status: 400})
		add(statusCase{name: "unknown field", base: plainTS.URL, path: path, body: `{"ratio":"1:3","demand":4,"bogus":1}`, status: 400})
		add(statusCase{name: "missing ratio", base: plainTS.URL, path: path, body: `{"demand":4}`, status: 400})
		add(statusCase{name: "bad scheduler", base: plainTS.URL, path: path, body: `{"ratio":"1:3","demand":4,"scheduler":"x"}`, status: 400})
		add(statusCase{name: "noise out of range", base: plainTS.URL, path: path, body: `{"ratio":"1:3","demand":4,"error_aware":true,"split_imbalance":0.7}`, status: 400})
		add(statusCase{name: "session conflict", base: plainTS.URL, path: path, body: `{"ratio":"1:2:5:8","demand":4,"mixers":2,"session":"pinned"}`, status: 409})
		add(statusCase{name: "session fenced", base: plainTS.URL, path: path, body: `{"ratio":"1:3","demand":4,"session":"fenced"}`, status: 409})
		add(statusCase{name: "storage too small", base: plainTS.URL, path: path, body: `{"ratio":"1:1:1:1:1:1:1:1:1:1:1:1:1:1:1:1","demand":4,"storage":1,"mixers":4}`, status: 422})
		add(statusCase{name: "tombstoned session", base: src.ts.URL, path: path, body: sessionBody(moved), status: 307, location: dst.ts.URL + path})
	}
	for _, path := range []string{"/v1/plan", "/v1/stream"} {
		add(statusCase{name: "demand past arena", base: plainTS.URL, path: path, body: `{"ratio":"2:1:1:1:1:1:9","demand":2000000000,"mixers":4}`, status: 422})
	}
	add(statusCase{name: "deadline", base: plainTS.URL, path: "/v1/plan",
		body: `{"ratio":"2:1:1:1:1:1:9","demand":10000,"storage":4,"scheduler":"SRS","timeout_ms":1}`, status: 504})
	add(statusCase{name: "fault rate out of range", base: plainTS.URL, path: "/v1/execute", body: `{"ratio":"1:3","demand":4,"fault_rate":1}`, status: 400})

	add(statusCase{name: "no fleet", base: plainTS.URL, path: "/v1/assay", body: planBody, status: 501})
	add(statusCase{name: "session routed", base: fleetTS.URL, path: "/v1/assay", body: `{"ratio":"1:3","demand":4,"session":"x"}`, status: 400})
	add(statusCase{name: "bad body", base: fleetTS.URL, path: "/v1/assay", body: `[]`, status: 400})
	add(statusCase{name: "bad ratio", base: fleetTS.URL, path: "/v1/assay", body: `{"ratio":"1:2","demand":4}`, status: 400})

	add(statusCase{name: "session plan", base: plainTS.URL, path: "/v1/artifact/build", body: sessionBody("b"), status: 400})
	add(statusCase{name: "storage-limited plan", base: plainTS.URL, path: "/v1/artifact/build", body: `{"ratio":"1:3","demand":4,"storage":3}`, status: 400})
	add(statusCase{name: "bad body", base: plainTS.URL, path: "/v1/artifact/build", body: `{`, status: 400})
	add(statusCase{name: "bad ratio", base: plainTS.URL, path: "/v1/artifact/build", body: `{"ratio":"x","demand":4}`, status: 400})
	add(statusCase{name: "demand past arena", base: plainTS.URL, path: "/v1/artifact/build", body: `{"ratio":"2:1:1:1:1:1:9","demand":2000000000,"mixers":4}`, status: 422})

	for _, path := range admitted {
		add(statusCase{name: "queue full", base: satTS.URL, path: path, body: planBody, status: 429, retry: retryYes})
		add(statusCase{name: "draining", base: drainTS.URL, path: path, body: planBody, status: 503, retry: retryYes})
		retry := retryYes
		if path == "/v1/artifact/build" {
			retry = retryAny
		}
		add(statusCase{name: "recovering", base: recTS.URL, path: path, body: planBody, status: 503, retry: retry})
	}

	add(statusCase{name: "no artifact tier", base: plainTS.URL, method: http.MethodGet, path: "/v1/artifact/" + addr, status: 501})
	add(statusCase{name: "no artifact tier", base: plainTS.URL, method: http.MethodPut, path: "/v1/artifact/" + addr, body: "x", status: 501})
	add(statusCase{name: "artifact not found", base: src.ts.URL, method: http.MethodGet, path: "/v1/artifact/" + addr, status: 404})
	add(statusCase{name: "corrupt artifact", base: src.ts.URL, method: http.MethodPut, path: "/v1/artifact/" + addr, body: "not an artifact", status: 422})

	add(statusCase{name: "no cluster", base: plainTS.URL, path: "/v1/session/s/migrate", status: 501})
	add(statusCase{name: "target ghost", base: src.ts.URL, path: "/v1/session/" + resident + "/migrate?target=ghost", status: 502})
	add(statusCase{name: "not resident", base: src.ts.URL, path: "/v1/session/no-such-session/migrate?target=" + dst.id, status: 404})
	add(statusCase{name: "target self", base: src.ts.URL, path: "/v1/session/" + resident + "/migrate?target=" + src.id, status: 400})

	add(statusCase{name: "no cluster", base: plainTS.URL, path: "/v1/session/s/adopt", body: "x", status: 501})
	add(statusCase{name: "bad snapshot", base: src.ts.URL, path: "/v1/session/s/adopt", body: "not frames", status: 422})
	add(statusCase{name: "fingerprint conflict", base: src.ts.URL, path: "/v1/session/" + resident + "/adopt", body: string(adoptConflict), status: 409})
	add(statusCase{name: "draining", base: drainClTS.URL, path: "/v1/session/s/adopt", body: "x", status: 503, retry: retryAny})
	add(statusCase{name: "recovering", base: recTS.URL, path: "/v1/session/s/adopt", body: "x", status: 503, retry: retryAny})

	add(statusCase{name: "no cluster", base: plainTS.URL, path: "/v1/cluster/members", body: `{"action":"leave","id":"x"}`, status: 501})
	add(statusCase{name: "bad body", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":`, status: 400})
	add(statusCase{name: "unknown action", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":"dance","id":"x"}`, status: 400})
	add(statusCase{name: "join without id", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":"join","url":"http://x"}`, status: 400})
	add(statusCase{name: "join self", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":"join","id":"` + src.id + `","url":"http://x"}`, status: 400})
	add(statusCase{name: "leave unknown member", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":"leave","id":"ghost"}`, status: 404})
	add(statusCase{name: "leave self", base: src.ts.URL, path: "/v1/cluster/members", body: `{"action":"leave","id":"` + src.id + `"}`, status: 400})

	add(statusCase{name: "report", base: plainTS.URL, method: http.MethodGet, path: "/v1/recovery", status: 200})

	// Every admitted route's 503 carries Retry-After, adopt and build too.
	add(statusCase{name: "recovering with Retry-After", base: recTS.URL, path: "/v1/artifact/build", body: planBody, status: 503, retry: retryYes})
	add(statusCase{name: "draining with Retry-After", base: drainClTS.URL, path: "/v1/session/s/adopt", body: "x", status: 503, retry: retryYes})
	add(statusCase{name: "recovering with Retry-After", base: recTS.URL, path: "/v1/session/s/adopt", body: "x", status: 503, retry: retryYes})
	// An execution whose faults outrun recovery is the client's chip
	// model, not a server fault.
	add(statusCase{name: "unrecoverable fault", base: plainTS.URL, path: "/v1/execute", body: `{"ratio":"1:3","demand":4,"fault_rate":0.9}`, status: 422})

	for _, c := range cases {
		method := c.method
		if method == "" {
			method = http.MethodPost
		}
		t.Run(method+" "+strings.SplitN(c.path, "?", 2)[0]+"/"+c.name, func(t *testing.T) {
			resp, raw := doRaw(t, method, c.base+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d (body %s), want %d", resp.StatusCode, raw, c.status)
			}
			switch got := resp.Header.Get("Retry-After"); {
			case c.retry == retryYes && got != retryAfter:
				t.Errorf("Retry-After = %q, want %q", got, retryAfter)
			case c.retry == retryNone && got != "":
				t.Errorf("Retry-After = %q, want none", got)
			}
			if c.location != "" && resp.Header.Get("Location") != c.location {
				t.Errorf("Location = %q, want %q", resp.Header.Get("Location"), c.location)
			}
			if c.status < 300 {
				return
			}
			var env map[string]any
			dec := json.NewDecoder(bytes.NewReader(raw))
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("body %q is not JSON: %v", raw, err)
			}
			if msg, ok := env["error"].(string); !ok || msg == "" || len(env) != 1 {
				t.Fatalf("body %s is not the error envelope", raw)
			}
		})
	}
}

// mustSpec validates a plan request into its spec.
func mustSpec(t *testing.T, req PlanRequest) *planSpec {
	t.Helper()
	spec, err := parsePlanRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
