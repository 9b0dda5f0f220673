package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// Recorder is the write-side surface of the measurement pipeline: the two
// §3.1 metric families a workload feeds while it runs — per-operation
// latencies (user-perceivable) and abstract-operation counters
// (architecture). Both *Collector and *Shard implement it, so stacks and
// workloads can accept either a whole collector or one of its shards.
type Recorder interface {
	ObserveLatency(op string, d time.Duration)
	Add(counter string, delta int64)
}

// Sharder is implemented by recorders that pool shards by slot.
type Sharder interface {
	Recorder
	Shard(slot int) *Shard
}

// ShardOf returns rec's slot-th pooled shard when rec supports sharding, and
// rec itself otherwise (a *Shard is already a contention-free handle; a nil
// Recorder stays nil). Worker goroutines call it once at start-up with
// their worker index, so their hot loops record without touching shared
// state and a second run of the same worker records into the same shard.
func ShardOf(rec Recorder, slot int) Recorder {
	if s, ok := rec.(Sharder); ok {
		return s.Shard(slot)
	}
	return rec
}

// SubstrateShardOf is ShardOf for stack-internal measurement: the slot-th
// shard of the substrate pool, whose latency observations (per-task,
// per-superstep, per-store-op echoes underneath a workload's own
// measurements) appear in Result.Ops but are excluded from the Throughput
// total, which must count each logical workload operation exactly once.
// A stack passes the natural index of the recording unit (worker slot,
// stage, partition), so the shard count tracks the stack's width.
func SubstrateShardOf(rec Recorder, slot int) Recorder {
	if s, ok := rec.(interface{ SubstrateShard(int) *Shard }); ok {
		return s.SubstrateShard(slot)
	}
	return rec
}

// StartTimer reads the clock only when rec is non-nil — the zero-cost start
// half of optional instrumentation. Pair with ObserveSince.
func StartTimer(rec Recorder) (t time.Time) {
	if rec != nil {
		t = time.Now()
	}
	return t
}

// ObserveSince records the time elapsed since start under op, and is a
// no-op when rec is nil. Together with StartTimer it is the one idiom every
// stack uses for optional substrate measurement.
func ObserveSince(rec Recorder, op string, start time.Time) {
	if rec != nil {
		rec.ObserveLatency(op, time.Since(start))
	}
}

// OpRef is a pre-resolved handle for one operation label: the hot-path
// counterpart of Recorder.ObserveLatency with the per-call map lookup
// hoisted out. A worker obtains the ref once (Shard.Op, Collector.Op or
// OpRefOf) and then observes through a single pointer dereference —
// provably allocation-free, so the record path cannot become the GC
// pressure it is supposed to measure. The zero OpRef is a no-op, mirroring
// the nil-Recorder idiom of StartTimer/ObserveSince.
type OpRef struct {
	cell *opCell
	// rec and name are the fallback path for Recorder implementations that
	// cannot mint direct histogram handles (custom recorders outside this
	// package); nil for refs minted by Shard/Collector.
	rec  Recorder
	name string
}

// StartTimer reads the clock only when the ref records anywhere — the
// OpRef twin of StartTimer(rec). Pair with OpRef.ObserveSince.
func (r OpRef) StartTimer() (t time.Time) {
	if r.Valid() {
		t = time.Now()
	}
	return t
}

// Observe records one latency under the ref's operation label. Safe for
// concurrent use; a no-op on the zero ref.
//
//bdbench:hotpath
func (r OpRef) Observe(d time.Duration) {
	if c := r.cell; c != nil {
		c.observe(d)
		return
	}
	if r.rec != nil {
		r.rec.ObserveLatency(r.name, d)
	}
}

// ObserveSince records the time elapsed since start — the OpRef twin of
// ObserveSince(rec, op, start).
//
//bdbench:hotpath
func (r OpRef) ObserveSince(start time.Time) {
	if c := r.cell; c != nil {
		c.observe(time.Since(start))
		return
	}
	if r.rec != nil {
		r.rec.ObserveLatency(r.name, time.Since(start))
	}
}

// Valid reports whether observations through the ref are recorded anywhere.
func (r OpRef) Valid() bool { return r.cell != nil || r.rec != nil }

// CounterRef is the counter twin of OpRef: a pre-resolved handle to one
// named counter cell. The zero CounterRef is a no-op.
type CounterRef struct {
	c    *atomic.Int64
	rec  Recorder
	name string
}

// Add increments the ref's counter by delta. Safe for concurrent use; a
// no-op on the zero ref.
//
//bdbench:hotpath
func (r CounterRef) Add(delta int64) {
	if r.c != nil {
		r.c.Add(delta)
		return
	}
	if r.rec != nil {
		r.rec.Add(r.name, delta)
	}
}

// RefMinter is implemented by recorders that can hand out direct OpRef and
// CounterRef handles (*Shard and *Collector). OpRefOf and CounterRefOf use
// it, falling back to the string-keyed Recorder path otherwise.
type RefMinter interface {
	Op(name string) OpRef
	CounterRef(name string) CounterRef
}

// OpRefOf resolves a pre-bound latency handle for op on rec: a direct
// histogram handle when rec can mint one, a string-keyed fallback wrapper
// otherwise, and a no-op ref for a nil recorder. Worker hot loops call it
// once at start-up and observe through the ref thereafter.
func OpRefOf(rec Recorder, op string) OpRef {
	if rec == nil {
		return OpRef{}
	}
	if m, ok := rec.(RefMinter); ok {
		return m.Op(op)
	}
	return OpRef{rec: rec, name: op}
}

// CounterRefOf resolves a pre-bound counter handle for name on rec; see
// OpRefOf.
func CounterRefOf(rec Recorder, name string) CounterRef {
	if rec == nil {
		return CounterRef{}
	}
	if m, ok := rec.(RefMinter); ok {
		return m.CounterRef(name)
	}
	return CounterRef{rec: rec, name: name}
}

// latMap and ctrMap are the copy-on-write map types behind a shard. A
// published map value is immutable: inserting a new operation or counter
// label copies the map under the shard's mutex and atomically swaps the
// pointer, so the lock-free fast path only ever reads frozen maps.
type (
	latMap map[string]*opCell
	ctrMap map[string]*atomic.Int64
)

// opCell is one operation label's recording state: the always-on atomic
// histogram plus, when sampling is enabled on the shard, a preallocated raw
// sample buffer. One pointer dereference reaches both, so the OpRef hot path
// stays a single indirection whether or not capture is on.
type opCell struct {
	hist stats.AtomicLatencyHistogram
	buf  *sampleBuf // nil unless sampling was enabled when the cell was built
}

// observe is the record hot path: a handful of atomic adds, plus two atomic
// stores into the preallocated sample buffer when capture is on. It must not
// allocate (TestOpRefSampledZeroAlloc holds it to that; bdvet's hotpath
// analyzer holds it statically).
//
//bdbench:hotpath
func (c *opCell) observe(d time.Duration) {
	c.hist.Observe(d)
	if b := c.buf; b != nil {
		b.record(d)
	}
}

// Shard is a contention-free recording handle. Each worker slot of a
// parallel stack records into its own shard (Collector.Shard or ShardOf), so
// hot operation loops never serialize on a shared lock: recording an
// observation is a handful of atomic adds on the shard's cells. Shards are
// safe for concurrent use — a snapshot may race with in-flight observes, and
// overlapping runs of a stack on one collector share a slot's shard —
// because every cell is atomic; the per-shard mutex guards only the rare
// copy-on-write insertion of a new operation or counter label.
type Shard struct {
	mu       sync.Mutex // serializes copy-on-write map growth only
	lat      atomic.Pointer[latMap]
	counters atomic.Pointer[ctrMap]
	// substrate marks stack-internal shards whose latency observations are
	// kept out of the Throughput total (see SubstrateShardOf).
	substrate bool
	// sampling, when non-nil, makes every operation cell built from now on
	// carry a raw sample buffer (see Collector.EnableSampling). Set before
	// the shard's first observation; cells built earlier have no buffer.
	sampling *samplingState
}

// NewShard returns a free-standing shard, unattached to any collector.
// Collector.Shard is the usual way to obtain one.
func NewShard() *Shard { return &Shard{} }

// ObserveLatency records one operation latency under the given operation
// label ("read", "update", ...). Lock-free once the label exists.
func (s *Shard) ObserveLatency(op string, d time.Duration) {
	if m := s.lat.Load(); m != nil {
		if c, ok := (*m)[op]; ok {
			c.observe(d)
			return
		}
	}
	s.latSlow(op).observe(d)
}

// latSlow installs the cell for a new operation label (copy-on-write). This
// is the one place sample buffers are allocated, so enabling capture never
// adds an allocation to the record fast path.
func (s *Shard) latSlow(op string) *opCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.lat.Load()
	if old != nil {
		if c, ok := (*old)[op]; ok {
			return c
		}
	}
	next := make(latMap, 1+lenOf(old))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &opCell{}
	if s.sampling != nil {
		c.buf = newSampleBuf(s.sampling)
	}
	next[op] = c
	s.lat.Store(&next)
	return c
}

// Op mints a pre-resolved handle for the operation label, installing its
// cell if this is the label's first use. Hot loops resolve once, then
// observe lock-free through the handle with no per-call map lookup.
func (s *Shard) Op(name string) OpRef {
	if m := s.lat.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return OpRef{cell: c}
		}
	}
	return OpRef{cell: s.latSlow(name)}
}

// CounterRef mints a pre-resolved handle for the named counter cell,
// installing it if this is the counter's first use.
func (s *Shard) CounterRef(name string) CounterRef {
	if m := s.counters.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return CounterRef{c: c}
		}
	}
	return CounterRef{c: s.counterSlow(name)}
}

// Add increments the named counter by delta. Counters capture architecture
// metrics (records processed, bytes shuffled, messages sent, ...).
// Lock-free once the label exists.
func (s *Shard) Add(counter string, delta int64) {
	if m := s.counters.Load(); m != nil {
		if c, ok := (*m)[counter]; ok {
			c.Add(delta)
			return
		}
	}
	s.counterSlow(counter).Add(delta)
}

// counterSlow installs the cell for a new counter label (copy-on-write).
func (s *Shard) counterSlow(counter string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.counters.Load()
	if old != nil {
		if c, ok := (*old)[counter]; ok {
			return c
		}
	}
	next := make(ctrMap, 1+lenOf(old))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &atomic.Int64{}
	next[counter] = c
	s.counters.Store(&next)
	return c
}

// Counter returns the shard-local value of a counter.
func (s *Shard) Counter(name string) int64 {
	if m := s.counters.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return c.Load()
		}
	}
	return 0
}

// Timed runs f and records its duration under op.
func (s *Shard) Timed(op string, f func()) {
	t0 := time.Now()
	f()
	s.ObserveLatency(op, time.Since(t0))
}

// drainLatencies folds the shard's histograms into dst, minting plain
// histograms on demand.
func (s *Shard) drainLatencies(dst map[string]*stats.LatencyHistogram) {
	m := s.lat.Load()
	if m == nil {
		return
	}
	for op, c := range *m {
		snap := c.hist.Snapshot()
		if h, ok := dst[op]; ok {
			h.Merge(snap)
		} else {
			dst[op] = snap
		}
	}
}

// drainCounters folds the shard's counters into dst.
func (s *Shard) drainCounters(dst map[string]int64) {
	m := s.counters.Load()
	if m == nil {
		return
	}
	for name, c := range *m {
		dst[name] += c.Load()
	}
}

func lenOf[M ~map[string]V, V any](m *M) int {
	if m == nil {
		return 0
	}
	return len(*m)
}

var (
	_ Recorder  = (*Shard)(nil)
	_ Recorder  = (*Collector)(nil)
	_ Sharder   = (*Collector)(nil)
	_ RefMinter = (*Shard)(nil)
	_ RefMinter = (*Collector)(nil)
)
