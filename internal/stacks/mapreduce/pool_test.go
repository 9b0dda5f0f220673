package mapreduce

import (
	"sync"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
)

// TestFreshEnginesShareSlotShards: 200 runs of a freshly built, freshly
// instrumented engine on one collector, 8 in flight at a time, record every
// task exactly once and leave the collector with one substrate shard per
// worker slot, not one per slot per run. The race step runs it with
// overlapping runs writing the same slot shards.
func TestFreshEnginesShareSlotShards(t *testing.T) {
	const runs, inFlight, workers = 200, 8, 2
	input := []KV{
		{"1", "the quick brown fox"},
		{"2", "the lazy dog"},
		{"3", "the quick dog"},
		{"4", "a brown dog"},
	}
	c := metrics.NewCollector("wordcount")
	gate := make(chan struct{}, inFlight)
	errs := make(chan error, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		gate <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-gate }()
			_, _, err := New(workers).Instrument(c).Run(wordCountJob(), input)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Each run has `workers` map tasks and `workers` reduce tasks (both
	// default to the engine width).
	c.SetElapsed(1)
	counts := map[string]uint64{}
	for _, op := range c.Snapshot().Ops {
		counts[op.Op] = op.Count
	}
	if counts["map_task"] != runs*workers || counts["reduce_task"] != runs*workers {
		t.Fatalf("map_task=%d reduce_task=%d, want %d each", counts["map_task"], counts["reduce_task"], runs*workers)
	}
	if got := c.ShardCount(); got != 1+workers {
		t.Fatalf("collector holds %d shards after %d runs, want %d (default + one per worker slot)", got, runs, 1+workers)
	}
}
