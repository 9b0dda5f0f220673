// Package mapreduce is bdbench's Hadoop-substitute: an in-process MapReduce
// engine with input splits, parallel map tasks, combiners, hash or custom
// partitioning, map-side sort, reduce-side merge, and parallel reduce tasks.
// Workloads that the paper's surveyed benchmarks run on Hadoop (sort,
// WordCount, TeraSort, PageRank iterations, k-means iterations, ...) run on
// this engine through the same map/reduce contract.
package mapreduce

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
)

// KV is the engine's record type.
type KV struct {
	Key, Value string
}

// Mapper transforms one input record into zero or more intermediate records.
type Mapper func(key, value string, emit func(k, v string))

// Reducer folds all values of one key into zero or more output records.
type Reducer func(key string, values []string, emit func(k, v string))

// Partitioner routes an intermediate key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartition is the default partitioner.
func HashPartition(key string, n int) int {
	return int(stats.FNV64(key) % uint64(n))
}

// Job describes one MapReduce execution.
type Job struct {
	Name string
	Map  Mapper
	// Reduce may be nil for map-only jobs.
	Reduce Reducer
	// Combine, when non-nil, pre-aggregates map output per partition
	// before the shuffle, cutting shuffle volume (it must be associative
	// and produce the same key).
	Combine Reducer
	// Partition defaults to HashPartition.
	Partition Partitioner
	// NumMappers and NumReducers default to the engine worker count.
	NumMappers  int
	NumReducers int
}

// Stats captures the architecture metrics of one job run.
type Stats struct {
	MapInputRecords   int64
	MapOutputRecords  int64
	CombineOutRecords int64
	ShuffleBytes      int64
	ReduceGroups      int64
	OutputRecords     int64
}

// Engine is a simulated cluster with a fixed worker pool.
type Engine struct {
	workers int
	rec     metrics.Recorder
}

// New returns an engine with the given parallelism (clamped to >= 1).
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers}
}

// Instrument attaches a measurement recorder and returns the engine.
// Map/reduce tasks record their per-task wall times into rec's substrate
// shard for the worker slot they run on (when rec can shard), so
// task-level measurement adds no shared-lock contention to the job's hot
// path, and every run of an engine on the same recorder reuses the same
// slot shards.
func (e *Engine) Instrument(rec metrics.Recorder) *Engine {
	e.rec = rec
	return e
}

// Name implements stacks.Stack.
func (e *Engine) Name() string { return "bdbench-mapreduce" }

// Type implements stacks.Stack.
func (e *Engine) Type() stacks.Type { return stacks.TypeMapReduce }

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

var _ stacks.Stack = (*Engine)(nil)

// Run executes the job over the input and returns the output records plus
// run statistics. A reducing job's output is its reduce partitions in
// partition order, each one key-sorted with groups reduced in key order, so
// a RangePartitioner yields globally sorted output. A map-only job's output
// is never sorted: mapper by mapper, each mapper's partition buckets in
// partition order, each bucket in emit order.
func (e *Engine) Run(job Job, input []KV) ([]KV, Stats, error) {
	if job.Map == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	numMappers := job.NumMappers
	if numMappers <= 0 {
		numMappers = e.workers
	}
	if numMappers > len(input) && len(input) > 0 {
		numMappers = len(input)
	}
	if numMappers < 1 {
		numMappers = 1
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = e.workers
	}
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}

	var st Stats
	st.MapInputRecords = int64(len(input))

	// Tasks acquire a worker slot before running, and slot i records into
	// the recorder's substrate shard i, shared by map and reduce phases and
	// by every run of an engine this wide on the same recorder: the shard
	// count is bounded by the worker pool, not by the task or run count.
	// Within a run a slot's shard has one writer at a time; runs that
	// overlap on one recorder share it, which the atomic cells allow.
	slots := make(chan int, e.workers)
	for i := 0; i < e.workers; i++ {
		slots <- i
	}
	// The task-latency OpRefs are resolved up front: the per-task
	// goroutines then record through direct histogram handles, never a
	// per-call label lookup (bdvet:oprefed enforces this).
	var mapRefs, reduceRefs []metrics.OpRef
	if e.rec != nil {
		mapRefs = make([]metrics.OpRef, e.workers)
		reduceRefs = make([]metrics.OpRef, e.workers)
		for i := 0; i < e.workers; i++ {
			shard := metrics.SubstrateShardOf(e.rec, i)
			mapRefs[i] = metrics.OpRefOf(shard, "map_task")
			reduceRefs[i] = metrics.OpRefOf(shard, "reduce_task")
		}
	}

	// ---- Map phase: each mapper owns a split and emits into
	// per-partition buckets. When the job reduces, each bucket leaves the
	// task as a key-sorted run, so the shuffle is a merge, not a sort.
	mapOut := make([][][]KV, numMappers) // mapper -> partition -> sorted run
	var mapOutCount, combineOutCount, shuffleBytes, groupCount atomic.Int64
	var wg sync.WaitGroup
	for m := 0; m < numMappers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			slot := <-slots
			defer func() { slots <- slot }()
			var taskRef metrics.OpRef
			if mapRefs != nil {
				taskRef = mapRefs[slot]
			}
			taskStart := taskRef.StartTimer()
			lo := len(input) * m / numMappers
			hi := len(input) * (m + 1) / numMappers
			buckets := make([][]KV, numReducers)
			emit := func(k, v string) {
				p := partition(k, numReducers)
				buckets[p] = append(buckets[p], KV{k, v})
			}
			for _, rec := range input[lo:hi] {
				job.Map(rec.Key, rec.Value, emit)
			}
			var sorter runSorter
			var emitted, combined int64
			for p := range buckets {
				emitted += int64(len(buckets[p]))
				if job.Combine != nil {
					sorter.sort(buckets[p])
					buckets[p], _ = groupFold(job.Combine, [][]KV{buckets[p]})
					combined += int64(len(buckets[p]))
				}
				if job.Reduce != nil {
					sorter.sort(buckets[p])
				}
			}
			mapOutCount.Add(emitted)
			combineOutCount.Add(combined)
			mapOut[m] = buckets
			taskRef.ObserveSince(taskStart)
		}(m)
	}
	wg.Wait()
	st.MapOutputRecords = mapOutCount.Load()
	st.CombineOutRecords = combineOutCount.Load()

	// Map-only job: concatenate mapper outputs in mapper order.
	if job.Reduce == nil {
		var out []KV
		for _, buckets := range mapOut {
			for _, b := range buckets {
				out = append(out, b...)
			}
		}
		st.OutputRecords = int64(len(out))
		return out, st, nil
	}

	// ---- Reduce phase: task p merges the mappers' sorted runs for
	// partition p, groups equal keys and folds them.
	reduceOut := make([][]KV, numReducers)
	for p := 0; p < numReducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			slot := <-slots
			defer func() { slots <- slot }()
			var taskRef metrics.OpRef
			if reduceRefs != nil {
				taskRef = reduceRefs[slot]
			}
			taskStart := taskRef.StartTimer()
			runs := make([][]KV, numMappers)
			var bytes int64
			for m := range runs {
				runs[m] = mapOut[m][p]
				for _, kv := range runs[m] {
					bytes += int64(len(kv.Key) + len(kv.Value))
				}
			}
			out, groups := groupFold(job.Reduce, runs)
			reduceOut[p] = out
			shuffleBytes.Add(bytes)
			groupCount.Add(groups)
			taskRef.ObserveSince(taskStart)
		}(p)
	}
	wg.Wait()
	st.ShuffleBytes = shuffleBytes.Load()
	st.ReduceGroups = groupCount.Load()

	var out []KV
	for _, part := range reduceOut {
		out = append(out, part...)
	}
	st.OutputRecords = int64(len(out))
	return out, st, nil
}

// byKey orders records by key alone.
func byKey(a, b KV) int { return strings.Compare(a.Key, b.Key) }

// runSorter stably sorts the buckets of one map task by key, reusing its
// scratch across them. It sorts record positions, breaking key ties by
// position, so each record moves twice; a stable sort of the records
// themselves (slices.SortStableFunc) moves each O(log² n) times.
type runSorter struct {
	pos []int
	tmp []KV
}

// sort stably sorts run in place; combiner output usually arrives sorted
// already.
func (s *runSorter) sort(run []KV) {
	if slices.IsSortedFunc(run, byKey) {
		return
	}
	if cap(s.pos) < len(run) {
		s.pos = make([]int, len(run))
		s.tmp = make([]KV, len(run))
	}
	pos, tmp := s.pos[:len(run)], s.tmp[:len(run)]
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		if c := strings.Compare(run[a].Key, run[b].Key); c != 0 {
			return c
		}
		return a - b
	})
	for i, p := range pos {
		tmp[i] = run[p]
	}
	copy(run, tmp)
}

// groupFold merges key-sorted runs, groups equal keys and folds each group
// with fold, returning what fold emitted and the number of groups. Equal
// keys are taken from lower-indexed runs first, so a group's values are in
// the order a stable sort of the runs' concatenation would give them.
func groupFold(fold Reducer, runs [][]KV) (out []KV, groups int64) {
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	heads := make([]int, len(runs))
	for {
		// first is the lowest-indexed run holding the smallest head key; no
		// earlier run can hold that key.
		first := -1
		for r, run := range runs {
			if heads[r] < len(run) && (first < 0 || run[heads[r]].Key < runs[first][heads[first]].Key) {
				first = r
			}
		}
		if first < 0 {
			return out, groups
		}
		key := runs[first][heads[first]].Key
		n := 0
		for r := first; r < len(runs); r++ {
			for i := heads[r]; i < len(runs[r]) && runs[r][i].Key == key; i++ {
				n++
			}
		}
		values := make([]string, 0, n)
		for r := first; r < len(runs); r++ {
			for heads[r] < len(runs[r]) && runs[r][heads[r]].Key == key {
				values = append(values, runs[r][heads[r]].Value)
				heads[r]++
			}
		}
		fold(key, values, emit)
		groups++
	}
}

// RangePartitioner builds a partitioner from sorted split points: keys below
// splits[0] go to partition 0, etc. TeraSort-style total ordering uses it
// with sampled split points.
func RangePartitioner(splits []string) Partitioner {
	points := slices.Clone(splits)
	slices.Sort(points)
	return func(key string, n int) int {
		idx, _ := slices.BinarySearch(points, key)
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
}

// SampleSplits picks n-1 evenly spaced split points from a sample of the
// input keys, for use with RangePartitioner over n partitions.
func SampleSplits(input []KV, n int, sampleSize int, g *stats.RNG) []string {
	if n <= 1 || len(input) == 0 {
		return nil
	}
	if sampleSize > len(input) {
		sampleSize = len(input)
	}
	sample := make([]string, sampleSize)
	for i := 0; i < sampleSize; i++ {
		sample[i] = input[g.IntN(len(input))].Key
	}
	slices.Sort(sample)
	splits := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		splits = append(splits, sample[i*len(sample)/n])
	}
	return splits
}
