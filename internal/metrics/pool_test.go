package metrics

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPooledShardIdentity: a slot names one shard per pool for the life of
// the collector, whoever asks for it and however often.
func TestPooledShardIdentity(t *testing.T) {
	c := NewCollector("wl")
	u0, s0 := c.Shard(0), c.SubstrateShard(0)
	if u0 == s0 {
		t.Fatal("user and substrate slot 0 share a shard")
	}
	if u0.substrate || !s0.substrate {
		t.Fatalf("pool levels mixed up: user.substrate=%v substrate.substrate=%v", u0.substrate, s0.substrate)
	}
	if c.Shard(1) == u0 || c.SubstrateShard(1) == s0 {
		t.Fatal("distinct slots share a shard")
	}
	if c.Shard(0) != u0 || c.SubstrateShard(0) != s0 {
		t.Fatal("re-minting slot 0 returned a different shard")
	}
	if ShardOf(c, 0) != Recorder(u0) || SubstrateShardOf(c, 0) != Recorder(s0) {
		t.Fatal("ShardOf/SubstrateShardOf bypass the pools")
	}

	// Concurrent first use of a slot still yields one shard.
	const n = 16
	got := make([]*Shard, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.SubstrateShard(7)
		}()
	}
	wg.Wait()
	for _, s := range got {
		if s != got[0] {
			t.Fatal("concurrent mints of one slot returned different shards")
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("negative slot did not panic")
		}
	}()
	c.Shard(-1)
}

// TestPooledShardCountBounded: the shard set is a function of how many
// slots were used, not of how many times they were asked for.
func TestPooledShardCountBounded(t *testing.T) {
	const slots = 4
	c := NewCollector("wl")
	for i := 0; i < 1000; i++ {
		sh := ShardOf(c, i%slots)
		sh.ObserveLatency("op", time.Microsecond)
	}
	if got := len(c.shards); got != 1+slots {
		t.Fatalf("len(c.shards) = %d after 1000 mints over %d slots, want %d", got, slots, 1+slots)
	}
	for i := 0; i < 1000; i++ {
		SubstrateShardOf(c, i%slots).ObserveLatency("echo", time.Microsecond)
	}
	c.RecordDatagen(time.Millisecond, 1) // substrate slot 0: no new shard
	if got := c.ShardCount(); got != 1+2*slots {
		t.Fatalf("ShardCount() = %d with %d user and %d substrate slots, want %d", got, slots, slots, 1+2*slots)
	}
}

// TestPooledMatchesFreshShards: recording many runs of a 3-wide stack
// through pooled slots gives the same snapshot as the old scheme of minting
// fresh shards on every run — the same Ops, the same Counters, and the same
// raw samples as multisets.
func TestPooledMatchesFreshShards(t *testing.T) {
	const runs, width = 25, 3
	t0 := time.Unix(0, 0)
	clock := func() time.Time { return t0.Add(time.Millisecond) }
	record := func(mint func(w int, substrate bool) *Shard) {
		var wg sync.WaitGroup
		for run := 0; run < runs; run++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for w := 0; w < width; w++ {
					u, s := mint(w, false), mint(w, true)
					u.Op("read").Observe(time.Duration(run*width+w+1) * time.Microsecond)
					u.Add("records", 1)
					s.Op("map_task").Observe(time.Duration(run+w+1) * time.Millisecond)
					s.Add("bytes", int64(run))
				}
			}()
		}
		wg.Wait()
	}
	snapshot := func(c *Collector) Result {
		c.SetElapsed(time.Second)
		r := c.Snapshot()
		for i := range r.Samples {
			normalizeSamples(&r.Samples[i])
		}
		return r
	}

	pooled := NewCollector("wl")
	pooled.EnableSamplingClock(runs*width, t0, clock)
	record(func(w int, substrate bool) *Shard {
		if substrate {
			return pooled.SubstrateShard(w)
		}
		return pooled.Shard(w)
	})

	fresh := NewCollector("wl")
	fresh.EnableSamplingClock(runs*width, t0, clock)
	record(func(_ int, substrate bool) *Shard {
		s := &Shard{substrate: substrate, sampling: fresh.sampling}
		fresh.mu.Lock()
		fresh.shards = append(fresh.shards, s)
		fresh.mu.Unlock()
		return s
	})

	pr, fr := snapshot(pooled), snapshot(fresh)
	if !reflect.DeepEqual(pr.Ops, fr.Ops) {
		t.Fatalf("Ops differ:\npooled %+v\nfresh  %+v", pr.Ops, fr.Ops)
	}
	if !reflect.DeepEqual(pr.Counters, fr.Counters) {
		t.Fatalf("Counters differ: pooled %v fresh %v", pr.Counters, fr.Counters)
	}
	if !reflect.DeepEqual(pr.Samples, fr.Samples) {
		t.Fatalf("Samples differ as multisets:\npooled %+v\nfresh  %+v", pr.Samples, fr.Samples)
	}
	if pooled.ShardCount() != 1+2*width || fresh.ShardCount() != 1+2*runs*width {
		t.Fatalf("shard counts pooled=%d fresh=%d", pooled.ShardCount(), fresh.ShardCount())
	}
	for _, s := range pr.Samples {
		if len(s.Values) == 0 || s.Dropped != 0 {
			t.Fatalf("op %s: %d samples, %d dropped", s.Op, len(s.Values), s.Dropped)
		}
	}
}

// normalizeSamples puts a stream's (offset, value) pairs in a canonical
// order, so two streams compare as multisets.
func normalizeSamples(s *OpSamples) {
	type pair struct{ off, val int64 }
	ps := make([]pair, len(s.Values))
	for i := range ps {
		ps[i] = pair{s.Offsets[i], s.Values[i]}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.off, b.off); c != 0 {
			return c
		}
		return cmp.Compare(a.val, b.val)
	})
	for i, p := range ps {
		s.Offsets[i], s.Values[i] = p.off, p.val
	}
}

// TestPooledShardReMintZeroAlloc: asking for a slot that already exists is
// a lookup, not an allocation, so a stack may resolve its shards on every
// run for free.
func TestPooledShardReMintZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.Shard(3)
	c.SubstrateShard(3)
	assertZeroAllocs(t, "re-mint of an existing slot", func() {
		_ = ShardOf(c, 3)
		_ = SubstrateShardOf(c, 3)
		_ = c.Shard(3)
		_ = c.SubstrateShard(3)
	})
}
