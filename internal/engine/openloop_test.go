package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/workloads"
)

// openLoopTask builds a task running the workload at the given offered
// rate over the window.
func openLoopTask(w workloads.Workload, rate float64, d time.Duration) Task {
	return Task{
		Workload: w,
		Category: w.Category(),
		Params:   workloads.Params{Seed: 7, Scale: 1, Workers: 2},
		Load:     &loadgen.Options{Rate: rate, Arrival: loadgen.Constant{}, Duration: d},
	}
}

// TestOpenLoopTask drives one task in open-loop mode and checks the
// result shape: load statistics attached, one synthetic repetition whose
// snapshot carries the request latencies recorded from intended starts.
func TestOpenLoopTask(t *testing.T) {
	var calls atomic.Int64
	w := fakeWorkload{name: "under-load", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		calls.Add(1)
		c.Add("records", 1)
		return nil
	}}
	results := Run(context.Background(), []Task{openLoopTask(w, 200, 200*time.Millisecond)}, Config{Workers: 1})
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	res := results[0]
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.Load == nil {
		t.Fatal("open-loop task returned no load statistics")
	}
	if res.Load.Scheduled != 40 || res.Load.Dispatched != 40 {
		t.Fatalf("scheduled/dispatched %d/%d, want 40/40", res.Load.Scheduled, res.Load.Dispatched)
	}
	if int(calls.Load()) != 40 {
		t.Fatalf("workload ran %d times, want 40", calls.Load())
	}
	if len(res.Reps) != 1 {
		t.Fatalf("open-loop task has %d reps, want 1 (the window)", len(res.Reps))
	}
	var foundRequest bool
	for _, op := range res.Median.Ops {
		if op.Op == loadgen.OpRequest && op.Substrate && op.Count == 40 {
			foundRequest = true
		}
	}
	if !foundRequest {
		t.Fatalf("snapshot missing substrate-level %q op: %+v", loadgen.OpRequest, res.Median.Ops)
	}
	if res.Median.Counters["records"] != 40 {
		t.Fatalf("counters not merged across operations: %+v", res.Median.Counters)
	}
}

// TestOpenLoopAllFailures verifies a window whose every operation errors
// surfaces as the task's error.
func TestOpenLoopAllFailures(t *testing.T) {
	w := fakeWorkload{name: "broken", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		return errors.New("boom")
	}}
	results := Run(context.Background(), []Task{openLoopTask(w, 100, 100*time.Millisecond)}, Config{Workers: 1})
	res := results[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched {
		t.Fatalf("want all operations failed, got %+v", res.Load)
	}
	if res.Err == nil {
		t.Fatal("task error not set when every operation failed")
	}
}

// TestOpenLoopTimeoutBoundsOperations verifies Config.Timeout bounds each
// individual operation, exactly as it bounds a closed-loop repetition.
func TestOpenLoopTimeoutBoundsOperations(t *testing.T) {
	w := fakeWorkload{name: "slow", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	}}
	start := time.Now()
	results := Run(context.Background(),
		[]Task{openLoopTask(w, 20, 100*time.Millisecond)},
		Config{Workers: 1, Timeout: 20 * time.Millisecond})
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("open-loop run with per-op timeout took %v", took)
	}
	res := results[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched {
		t.Fatalf("timed-out operations not counted as errors: %+v", res.Load)
	}
}

// TestOpenLoopAbandonsNonCooperativeWorkload guards against a workload
// that ignores its context wedging the whole window: each overrunning
// operation must be reported failed at its deadline and abandoned, exactly
// as closed-loop runOnce abandons an overrunning repetition.
func TestOpenLoopAbandonsNonCooperativeWorkload(t *testing.T) {
	block := make(chan struct{})
	defer close(block) // unwedge the leaked goroutines at test end
	w := fakeWorkload{name: "wedged", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		<-block // ignores ctx entirely
		return nil
	}}
	start := time.Now()
	results := Run(context.Background(),
		[]Task{openLoopTask(w, 50, 100*time.Millisecond)},
		Config{Workers: 1, Timeout: 25 * time.Millisecond})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("non-cooperative workload wedged the window for %v", took)
	}
	res := results[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched || res.Load.Dispatched == 0 {
		t.Fatalf("abandoned operations not reported as errors: %+v", res.Load)
	}
}

// TestOpenLoopScheduleIdenticalAcrossEngineWorkers is the determinism
// guarantee one level up: the arrival schedule depends only on seed, rate
// and window — the engine's worker count changes nothing about what load
// is offered.
func TestOpenLoopScheduleIdenticalAcrossEngineWorkers(t *testing.T) {
	mk := func() []Task {
		var tasks []Task
		for i := 0; i < 4; i++ {
			tasks = append(tasks, openLoopTask(seededWorkload("seeded"), 100, 100*time.Millisecond))
		}
		return tasks
	}
	seq := Run(context.Background(), mk(), Config{Workers: 1})
	par := Run(context.Background(), mk(), Config{Workers: 4})
	for i := range seq {
		s, p := seq[i].Load, par[i].Load
		if s == nil || p == nil {
			t.Fatalf("task %d: missing load stats", i)
		}
		if s.Scheduled != p.Scheduled || s.Dispatched != p.Dispatched {
			t.Fatalf("task %d: offered load differs across engine workers: %d/%d vs %d/%d",
				i, s.Scheduled, s.Dispatched, p.Scheduled, p.Dispatched)
		}
	}
}

// TestOpenLoopFreshEnginePerRequest: a workload that builds and instruments
// a fresh mapreduce engine on every request records into the collector's
// pooled slot shards, so a per-cell sample capacity of at least the request
// count keeps every stream complete: each request adds one map and one
// reduce task to each worker slot's cells.
func TestOpenLoopFreshEnginePerRequest(t *testing.T) {
	const rate, window, workers = 200, 250 * time.Millisecond, 2
	const requests = 50 // rate × window
	input := []mapreduce.KV{{Key: "1", Value: "a b"}, {Key: "2", Value: "b c"}, {Key: "3", Value: "c a"}}
	job := mapreduce.Job{
		Name:   "wc",
		Map:    func(_, v string, emit func(k, v string)) { emit(v, "1") },
		Reduce: func(k string, vs []string, emit func(k, v string)) { emit(k, "1") },
	}
	w := fakeWorkload{name: "fresh-engine", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		_, _, err := mapreduce.New(workers).Instrument(c).Run(job, input)
		return err
	}}
	results := Run(context.Background(), []Task{openLoopTask(w, rate, window)}, Config{Workers: 1, SampleCap: requests})
	res := results[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Load.Dispatched != requests {
		t.Fatalf("dispatched %d requests, want %d", res.Load.Dispatched, requests)
	}
	var tasks int
	for _, s := range res.Median.Samples {
		if s.Dropped != 0 {
			t.Errorf("op %s dropped %d samples at capacity %d", s.Op, s.Dropped, requests)
		}
		if s.Op == "map_task" || s.Op == "reduce_task" {
			tasks += len(s.Values)
		}
	}
	if tasks != 2*workers*requests {
		t.Fatalf("captured %d task samples, want %d", tasks, 2*workers*requests)
	}
}
