package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/svg"
)

// batchReading renders everything a reader can ask of a persistent batch:
// its forest's validity and stats, its schedule's validity, storage,
// stored droplets, Gantt charts, JSON export and quality metrics, and its
// result's emissions.
func batchReading(t *testing.T, b *core.Batch) string {
	t.Helper()
	f := b.Result.Passes[0].Plan.Forest()
	s := b.Result.Passes[0].Plan.Schedule()
	js, err := json.Marshal(export.Schedule(s))
	if err != nil {
		t.Fatal(err)
	}
	var stored []string
	for _, sd := range sched.StoredDroplets(s) {
		stored = append(stored, fmt.Sprintf("%d>%d@%d..%d", sd.Producer.ID, sd.Consumer.ID, sd.From, sd.To))
	}
	return fmt.Sprintf("forest validate=%v stats=%+v\nvalidate=%v storage=%d stored=%v\n%s\n%s\n%s\nquality=%+v emissions=%v",
		f.Validate(), f.Stats(), s.Validate(), sched.StorageUnits(s), stored, sched.Gantt(s), js, svg.Gantt(s),
		experiments.Quality(s), b.Result.Emissions())
}

// TestPersistentEarlierBatchesStayUsable plans persistent batches and then
// 20 more Requests on the same engine: every earlier batch's forest must
// validate, and every earlier batch must read exactly as it did right
// after its own Request, its forest's stats included, however far the
// later Requests grew the forest and whatever spares of its they consumed.
func TestPersistentEarlierBatchesStayUsable(t *testing.T) {
	requests := []int{3, 4, 1, 7, 2, 10, 5, 6, 9, 8}
	for _, scheduler := range []stream.Scheduler{stream.MMS, stream.SRS} {
		e, err := core.New(core.Config{Target: protocols.PCR16().Ratio, PersistPool: true, Scheduler: scheduler})
		if err != nil {
			t.Fatal(err)
		}
		var batches []*core.Batch
		var readings []string
		for _, n := range requests {
			b, err := e.Request(n)
			if err != nil {
				t.Fatalf("%s Request(%d): %v", scheduler, n, err)
			}
			if err := b.Result.Passes[0].Plan.Forest().Validate(); err != nil {
				t.Fatalf("%s Request(%d): forest: %v", scheduler, n, err)
			}
			batches = append(batches, b)
			readings = append(readings, batchReading(t, b))
		}
		for i := 0; i < 20; i++ {
			if _, err := e.Request(1 + i%5); err != nil {
				t.Fatalf("%s later Request %d: %v", scheduler, i, err)
			}
		}
		for i, b := range batches {
			if got := batchReading(t, b); got != readings[i] {
				t.Fatalf("%s batch %d (Request(%d)) reads differently after 20 more Requests:\n got %s\nwant %s",
					scheduler, i, b.Request, got, readings[i])
			}
		}
	}
}
