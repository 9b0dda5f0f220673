package metrics

import (
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/raceflag"
)

// assertZeroAllocs runs f through testing.AllocsPerRun and requires a zero
// steady-state allocation count. Under -race the hot path still executes
// (so the race step covers it) but the exact count is not asserted — the
// detector's own bookkeeping shows up in the measurement.
func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(1000, f)
	if raceflag.Enabled {
		t.Skipf("%s: allocation counts not asserted under -race (measured %.1f)", what, allocs)
	}
	if allocs != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", what, allocs)
	}
}

// TestShardObserveLatencyZeroAlloc: once an operation label exists, the
// string-keyed record path must not allocate — the zero-alloc contract of
// the engine → shard → histogram chain.
func TestShardObserveLatencyZeroAlloc(t *testing.T) {
	s := NewShard()
	s.ObserveLatency("op", time.Millisecond) // install the label (COW miss path)
	assertZeroAllocs(t, "Shard.ObserveLatency", func() {
		s.ObserveLatency("op", time.Microsecond)
	})
}

// TestShardAddZeroAlloc: counter increments after the label's first use.
func TestShardAddZeroAlloc(t *testing.T) {
	s := NewShard()
	s.Add("records", 1)
	assertZeroAllocs(t, "Shard.Add", func() {
		s.Add("records", 1)
	})
}

// TestCollectorFacadeZeroAlloc: the collector facade delegates to its
// default shard and must stay allocation-free too.
func TestCollectorFacadeZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("op", time.Millisecond)
	c.Add("records", 1)
	assertZeroAllocs(t, "Collector facade", func() {
		c.ObserveLatency("op", time.Microsecond)
		c.Add("records", 1)
	})
}

// TestOpRefZeroAlloc: the pre-resolved handles — including minting them
// for an existing label — never allocate.
func TestOpRefZeroAlloc(t *testing.T) {
	s := NewShard()
	op := s.Op("op")
	ctr := s.CounterRef("records")
	start := time.Now()
	assertZeroAllocs(t, "OpRef/CounterRef", func() {
		op.Observe(time.Microsecond)
		op.ObserveSince(start)
		ctr.Add(1)
	})
	assertZeroAllocs(t, "Shard.Op remint", func() {
		s.Op("op").Observe(time.Microsecond)
	})
}

// TestOpRefSampledZeroAlloc: the record path must stay allocation-free with
// raw sample capture enabled — the buffer is preallocated when the cell is
// built, so recording is two atomic stores on top of the histogram adds.
// This is the tentpole's contract: always-on capture without becoming the GC
// pressure the benchmark is measuring.
func TestOpRefSampledZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(1 << 16)
	op := c.Op("op")
	ctr := c.CounterRef("records")
	start := time.Now()
	assertZeroAllocs(t, "OpRef.Observe (sampling on)", func() {
		op.Observe(time.Microsecond)
		ctr.Add(1)
	})
	assertZeroAllocs(t, "OpRef.ObserveSince (sampling on)", func() {
		op.ObserveSince(start)
	})
	assertZeroAllocs(t, "Shard.ObserveLatency (sampling on)", func() {
		c.ObserveLatency("op", time.Microsecond)
	})
}

// TestOpRefSampledZeroAllocAfterOverflow: a full buffer drops new samples on
// the claim counter alone — still zero allocations.
func TestOpRefSampledZeroAllocAfterOverflow(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(4)
	op := c.Op("op")
	for i := 0; i < 8; i++ {
		op.Observe(time.Microsecond) // overflow the 4-slot buffer
	}
	assertZeroAllocs(t, "OpRef.Observe (buffer full)", func() {
		op.Observe(time.Microsecond)
	})
}

// TestOpRefResolution covers the three OpRefOf paths: direct handle from a
// minter, string fallback for a foreign Recorder, no-op for nil.
func TestOpRefResolution(t *testing.T) {
	c := NewCollector("wl")
	ref := OpRefOf(c, "read")
	if !ref.Valid() {
		t.Fatal("ref minted from a collector should be valid")
	}
	ref.Observe(time.Millisecond)
	cref := CounterRefOf(c, "records")
	cref.Add(7)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Ops) != 1 || r.Ops[0].Op != "read" || r.Ops[0].Count != 1 {
		t.Fatalf("direct ref observation lost: %+v", r.Ops)
	}
	if r.Counters["records"] != 7 {
		t.Fatalf("direct counter ref lost: %v", r.Counters)
	}

	// A foreign Recorder still receives observations through the fallback.
	fr := &fakeRecorder{}
	OpRefOf(fr, "x").Observe(time.Millisecond)
	OpRefOf(fr, "x").ObserveSince(time.Now())
	CounterRefOf(fr, "n").Add(3)
	if fr.obs != 2 || fr.adds != 3 {
		t.Fatalf("fallback refs dropped observations: obs=%d adds=%d", fr.obs, fr.adds)
	}

	// The zero ref and nil-recorder refs are safe no-ops.
	var zero OpRef
	zero.Observe(time.Second)
	zero.ObserveSince(time.Now())
	if zero.Valid() {
		t.Fatal("zero OpRef must be invalid")
	}
	OpRefOf(nil, "x").Observe(time.Second)
	CounterRefOf(nil, "x").Add(1)
}

// TestOpRefSubstrateShard: refs minted from a substrate shard keep the
// shard's substrate marking at snapshot time.
func TestOpRefSubstrateShard(t *testing.T) {
	c := NewCollector("wl")
	sub := c.SubstrateShard(0)
	sub.Op("echo").Observe(time.Millisecond)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Ops) != 1 || !r.Ops[0].Substrate {
		t.Fatalf("substrate marking lost through OpRef: %+v", r.Ops)
	}
	if r.Throughput != 0 {
		t.Fatalf("substrate-only observations must not feed throughput: %v", r.Throughput)
	}
}

type fakeRecorder struct {
	obs  int
	adds int64
}

func (f *fakeRecorder) ObserveLatency(string, time.Duration) { f.obs++ }
func (f *fakeRecorder) Add(_ string, d int64)                { f.adds += d }
