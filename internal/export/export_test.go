package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"

	"repro/internal/chip"
)

func fixtures(t *testing.T) (*forest.Forest, *sched.Schedule, *stream.Result, *exec.Plan) {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatalf("minmix: %v", err)
	}
	f, err := forest.Build(g, 20)
	if err != nil {
		t.Fatalf("forest: %v", err)
	}
	s, err := sched.SRS(f, 3)
	if err != nil {
		t.Fatalf("SRS: %v", err)
	}
	res, err := stream.Run(stream.Config{Base: g, Mixers: 3, Storage: 3, Scheduler: stream.SRS}, 20)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	plan, err := exec.Execute(s, chip.PCRLayout())
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return f, s, res, plan
}

func roundtrip(t *testing.T, v interface{}) map[string]interface{} {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return m
}

func TestForestJSON(t *testing.T) {
	f, _, _, _ := fixtures(t)
	m := roundtrip(t, Forest(f))
	if m["target"] != "2:1:1:1:1:1:9" || m["algorithm"] != "MM" {
		t.Errorf("header fields wrong: %v %v", m["target"], m["algorithm"])
	}
	if m["mixes"].(float64) != 27 || m["waste"].(float64) != 5 {
		t.Errorf("stats wrong: mixes=%v waste=%v", m["mixes"], m["waste"])
	}
	tasks := m["tasks"].([]interface{})
	if len(tasks) != 27 {
		t.Fatalf("%d tasks", len(tasks))
	}
	first := tasks[0].(map[string]interface{})
	if first["label"] == "" || len(first["in"].([]interface{})) != 2 {
		t.Errorf("task DTO malformed: %v", first)
	}
}

func TestScheduleJSON(t *testing.T) {
	_, s, _, _ := fixtures(t)
	m := roundtrip(t, Schedule(s))
	if m["algorithm"] != "SRS" || m["cycles"].(float64) != 11 || m["storage"].(float64) != 5 {
		t.Errorf("schedule header wrong: %v", m)
	}
	if len(m["slots"].([]interface{})) != 27 {
		t.Errorf("slot count wrong")
	}
	if len(m["storage_profile"].([]interface{})) != 12 {
		t.Errorf("profile length wrong")
	}
}

func TestStreamJSON(t *testing.T) {
	_, _, res, _ := fixtures(t)
	m := roundtrip(t, Stream(res))
	if int(m["emitted"].(float64)) < 20 {
		t.Errorf("emitted = %v", m["emitted"])
	}
	passes := m["passes"].([]interface{})
	if len(passes) != len(res.Passes) {
		t.Errorf("pass count mismatch")
	}
}

func TestPlanJSON(t *testing.T) {
	_, _, _, plan := fixtures(t)
	m := roundtrip(t, Plan(plan))
	if int(m["total_cost"].(float64)) != plan.TotalCost {
		t.Errorf("total cost mismatch")
	}
	moves := m["moves"].([]interface{})
	if len(moves) != len(plan.Moves) {
		t.Fatalf("move count mismatch")
	}
	mv := moves[0].(map[string]interface{})
	if mv["purpose"] == "" || mv["from"] == "" {
		t.Errorf("move DTO malformed: %v", mv)
	}
}

func TestIncrementalScheduleOmitsOldSlots(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	b := forest.NewPackedBuilder(g)
	b.AddTree()
	start := len(b.Forest().Tasks)
	b.AddTree()
	f := b.Forest().Materialize()
	var k sched.Kernel
	if err := k.MMSFrom(b.Forest(), 3, start); err != nil {
		t.Fatalf("MMSFrom: %v", err)
	}
	s := k.Materialize(f)
	m := roundtrip(t, Schedule(s))
	if got := len(m["slots"].([]interface{})); got != len(f.Tasks)-start {
		t.Errorf("incremental export has %d slots, want %d", got, len(f.Tasks)-start)
	}
	if int(m["first_task"].(float64)) != start {
		t.Errorf("first_task = %v", m["first_task"])
	}
}
