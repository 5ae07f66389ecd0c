package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The chaos harness kills the daemon with SIGKILL mid-stream — no drain, no
// WAL close, torn frames welcome — restarts it against the same log and
// verifies the durability contract: every batch the daemon acknowledged is
// still on its session's timeline after recovery (or the session surfaces a
// typed error at /v1/recovery). Silent loss of acknowledged work fails the
// test.
//
// The daemon runs as a real child process (this test binary re-executed in
// helper mode), so the kill exercises the actual fsync boundaries, not a
// simulation. CHAOS_CYCLES sets the kill/restart count (default 3 to keep
// `go test` quick; `make chaos-smoke` runs 50).

// TestDmfbdHelper is the re-exec entry point: it IS the daemon when the
// chaos env vars are set, and skips otherwise.
func TestDmfbdHelper(t *testing.T) {
	if os.Getenv("DMFBD_CHAOS_HELPER") != "1" {
		t.Skip("not in helper mode")
	}
	args := strings.Split(os.Getenv("DMFBD_CHAOS_ARGS"), "\x1f")
	os.Exit(cliMain(args, os.Stderr, nil))
}

// chaosDaemon is one running daemon child process.
type chaosDaemon struct {
	cmd  *exec.Cmd
	base string // http://addr
}

// startChaosDaemon re-execs the test binary as the daemon and waits until
// /healthz/ready answers 200 (recovery finished). extra flags append after
// the defaults; a repeated flag takes its last value, so extra can override
// -addr for fixed-port cluster members.
func startChaosDaemon(t *testing.T, walPath string, extra ...string) *chaosDaemon {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-wal", walPath, "-chips", "2"}
	args = append(args, extra...)
	cmd := exec.Command(os.Args[0], "-test.run=^TestDmfbdHelper$")
	cmd.Env = append(os.Environ(),
		"DMFBD_CHAOS_HELPER=1",
		"DMFBD_CHAOS_ARGS="+strings.Join(args, "\x1f"),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The daemon announces its bound address on stderr.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "dmfbd: serving on "); ok {
				select {
				case addrc <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatal("daemon never announced its address")
	}

	// Ready = recovery done.
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return &chaosDaemon{cmd: cmd, base: base}
}

// chaosPlan posts one session batch and returns (startCycle, totalCycles).
func chaosPlan(t *testing.T, base, session string, demand int) (int, int) {
	t.Helper()
	body := fmt.Sprintf(`{"ratio":"2:1:1:1:1:1:9","demand":%d,"scheduler":"SRS","session":%q}`, demand, session)
	resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan %s: %v", session, err)
	}
	defer resp.Body.Close()
	var out struct {
		StartCycle  int    `json:"start_cycle"`
		TotalCycles int    `json:"total_cycles"`
		Error       string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode plan response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/plan %s = %d: %s", session, resp.StatusCode, out.Error)
	}
	return out.StartCycle, out.TotalCycles
}

// recoveryFailed fetches the sessions recovery typed-failed this boot.
func recoveryFailed(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/v1/recovery")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr struct {
		Failed []struct {
			Session string `json:"session"`
			Error   string `json:"error"`
		} `json:"failed"`
		DurationMS float64 `json:"duration_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, f := range rr.Failed {
		if f.Error == "" {
			t.Fatalf("recovery failure for %q carries no typed error", f.Session)
		}
		out[f.Session] = f.Error
	}
	lastRecoveryMS = rr.DurationMS
	return out
}

// lastRecoveryMS is the replay duration of the most recently inspected boot;
// the final-boot assertion pins the warm-log replay budget.
var lastRecoveryMS float64

// chaosSession tracks what the test (as the client) has been acknowledged.
type chaosSession struct {
	name        string
	elapsed     int // cycles acked so far
	batchCycles int // cycles of one batch (constant: same spec, same demand)
	batches     int
}

const chaosDemand = 16

// verify asserts the session timeline survived a restart: the next batch
// starts either right after everything acked, or one batch later (an
// un-acked in-flight batch the recovery legitimately resumed).
func (cs *chaosSession) verify(t *testing.T, base string) {
	t.Helper()
	start, cycles := chaosPlan(t, base, cs.name, chaosDemand)
	wantAcked := cs.elapsed + 1
	wantResumed := cs.elapsed + cs.batchCycles + 1
	if cs.batches > 0 && start != wantAcked && start != wantResumed {
		t.Fatalf("session %s lost acked work: next batch starts at %d, want %d (all acked) or %d (torn batch resumed)",
			cs.name, start, wantAcked, wantResumed)
	}
	cs.elapsed = start + cycles - 1
	cs.batchCycles = cycles
	cs.batches++
}

func TestChaosKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real processes")
	}
	cycles := 3
	if v := os.Getenv("CHAOS_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad CHAOS_CYCLES %q", v)
		}
		cycles = n
	}
	walPath := filepath.Join(t.TempDir(), "chaos.wal")
	sessions := []*chaosSession{{name: "s0"}, {name: "s1"}, {name: "s2"}}

	for cycle := 0; cycle < cycles; cycle++ {
		d := startChaosDaemon(t, walPath)

		// Phase 1: verify everything previously acked survived the last
		// SIGKILL (typed recovery failures are the only excuse).
		failed := recoveryFailed(t, d.base)
		for _, cs := range sessions {
			if why, ok := failed[cs.name]; ok {
				// Typed, not silent: acceptable per the durability contract,
				// but it should not happen with an intact log — log it loudly
				// and restart the session's bookkeeping.
				t.Logf("cycle %d: session %s typed-failed in recovery: %s", cycle, cs.name, why)
				*cs = chaosSession{name: fmt.Sprintf("%s-r%d", cs.name, cycle)}
			}
			cs.verify(t, d.base)
		}

		// Phase 2: acked traffic.
		for _, cs := range sessions {
			start, cyc := chaosPlan(t, d.base, cs.name, chaosDemand)
			if start != cs.elapsed+1 {
				t.Fatalf("cycle %d: session %s start=%d, want %d", cycle, cs.name, start, cs.elapsed+1)
			}
			cs.elapsed += cyc
			cs.batches++
		}

		// Phase 3: SIGKILL mid-stream — one request races the kill; whether
		// its accept reached the log is exactly the ambiguity verify()
		// tolerates.
		go func() {
			body := fmt.Sprintf(`{"ratio":"2:1:1:1:1:1:9","demand":%d,"scheduler":"SRS","session":"s0"}`, chaosDemand)
			resp, err := http.Post(d.base+"/v1/plan", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		time.Sleep(time.Duration(cycle%3) * time.Millisecond)
		if err := d.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		d.cmd.Wait()
	}

	// Final boot: everything must still be there, then a graceful SIGTERM
	// must exit 0 with the WAL cleanly closed.
	d := startChaosDaemon(t, walPath)
	failed := recoveryFailed(t, d.base)
	if lastRecoveryMS > 250 {
		t.Errorf("final boot: warm-log WAL replay took %.1fms, budget is 250ms", lastRecoveryMS)
	}
	t.Logf("final boot: wal replay %.1fms after %d kill cycles", lastRecoveryMS, cycles)
	for _, cs := range sessions {
		if why, ok := failed[cs.name]; ok {
			t.Fatalf("final boot: session %s typed-failed: %s", cs.name, why)
		}
		cs.verify(t, d.base)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown after chaos: %v", err)
	}
}

// TestChaosMigrateKillOwner is the cluster half of the chaos contract: a
// 3-node fleet of real dmfbd processes, the session's ring owner SIGKILLed
// mid-stream, restarted on its WAL, and the recovered session migrated to a
// survivor — whose continued timeline must be bit-identical (every acked
// batch exactly where the client left it), with the old owner redirecting.
func TestChaosMigrateKillOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real processes")
	}
	// Cluster members need each other's URLs at construction, so the ports
	// are pre-allocated (bind :0, note the address, release it).
	ids := []string{"node-0", "node-1", "node-2"}
	addrs := make([]string, len(ids))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	dir := t.TempDir()
	start := func(i int) *chaosDaemon {
		var peers []string
		for j := range ids {
			if j != i {
				peers = append(peers, ids[j]+"=http://"+addrs[j])
			}
		}
		return startChaosDaemon(t, filepath.Join(dir, ids[i]+".wal"),
			"-addr", addrs[i],
			"-node-id", ids[i],
			"-peers", strings.Join(peers, ","),
			"-artifact-dir", filepath.Join(dir, ids[i]+"-artifacts"),
			"-heartbeat", "250ms",
		)
	}
	ds := make([]*chaosDaemon, len(ids))
	for i := range ds {
		ds[i] = start(i)
	}

	// A session the shared ring places on node-0 — the node we will kill.
	ring := cluster.NewRing(ids)
	var name string
	for i := 0; i < 100000; i++ {
		cand := fmt.Sprintf("chaos-mig-%d", i)
		if ring.Owner("session|"+cand) == ids[0] {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no session name owned by node-0")
	}

	// Acked traffic on the owner.
	cs := &chaosSession{name: name}
	for i := 0; i < 3; i++ {
		got, cyc := chaosPlan(t, ds[0].base, name, chaosDemand)
		if got != cs.elapsed+1 {
			t.Fatalf("batch %d start=%d, want %d", i+1, got, cs.elapsed+1)
		}
		cs.elapsed += cyc
		cs.batchCycles = cyc
		cs.batches++
	}

	// SIGKILL the owner mid-stream: one request races the kill, so whether
	// its accept reached the log is exactly the ambiguity verify tolerates.
	go func() {
		body := fmt.Sprintf(`{"ratio":"2:1:1:1:1:1:9","demand":%d,"scheduler":"SRS","session":%q}`, chaosDemand, name)
		resp, err := http.Post(ds[0].base+"/v1/plan", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(time.Millisecond)
	if err := ds[0].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	ds[0].cmd.Wait()

	// Restart the owner on its WAL: recovery must hand back the timeline.
	ds[0] = start(0)
	if why, ok := recoveryFailed(t, ds[0].base)[name]; ok {
		t.Fatalf("session %s typed-failed in recovery: %s", name, why)
	}
	cs.verify(t, ds[0].base)

	// Migrate the recovered session to a survivor. The ship replays the
	// snapshot on node-1 and verifies it batch by batch before acking.
	resp, err := http.Post(ds[0].base+"/v1/session/"+name+"/migrate?target="+ids[1], "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate after recovery: status %d", resp.StatusCode)
	}

	// Bit-identical continuation on the new owner: the next batch starts
	// exactly one cycle after everything the client was acked.
	got, cyc := chaosPlan(t, ds[1].base, name, chaosDemand)
	if got != cs.elapsed+1 {
		t.Fatalf("migrated timeline diverged: next batch starts at %d, want %d", got, cs.elapsed+1)
	}
	cs.elapsed += cyc

	// The old owner tombstoned the session and redirects (307, followed by
	// the client) to the new holder — still the same timeline.
	got, cyc = chaosPlan(t, ds[0].base, name, chaosDemand)
	if got != cs.elapsed+1 {
		t.Fatalf("redirected batch starts at %d, want %d", got, cs.elapsed+1)
	}
	cs.elapsed += cyc

	// Every node drains gracefully with its WAL cleanly closed.
	for i, d := range ds {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := d.cmd.Wait(); err != nil {
			t.Fatalf("graceful shutdown of %s: %v", ids[i], err)
		}
	}
}
