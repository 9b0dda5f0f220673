package mapreduce

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
)

func wordCountJob() Job {
	return Job{
		Name: "wordcount",
		Map: func(_, value string, emit func(k, v string)) {
			for _, w := range strings.Fields(value) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string, emit func(k, v string)) {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				total += n
			}
			emit(key, strconv.Itoa(total))
		},
	}
}

func TestWordCount(t *testing.T) {
	e := New(4)
	input := []KV{
		{"1", "the quick brown fox"},
		{"2", "the lazy dog"},
		{"3", "the quick dog"},
	}
	out, st, err := e.Run(wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	want := map[string]string{"the": "3", "quick": "2", "dog": "2", "brown": "1", "fox": "1", "lazy": "1"}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%s] = %s, want %s (all: %v)", k, counts[k], v, counts)
		}
	}
	if st.MapInputRecords != 3 {
		t.Fatalf("map input %d", st.MapInputRecords)
	}
	if st.MapOutputRecords != 10 {
		t.Fatalf("map output %d, want 10", st.MapOutputRecords)
	}
	if st.ReduceGroups != 6 {
		t.Fatalf("groups %d, want 6", st.ReduceGroups)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	e := New(2)
	var input []KV
	for i := 0; i < 200; i++ {
		input = append(input, KV{strconv.Itoa(i), "a a a a a b b"})
	}
	plain := wordCountJob()
	plain.NumMappers = 4
	_, stPlain, err := e.Run(plain, input)
	if err != nil {
		t.Fatal(err)
	}
	combined := wordCountJob()
	combined.NumMappers = 4
	combined.Combine = combined.Reduce
	out, stComb, err := e.Run(combined, input)
	if err != nil {
		t.Fatal(err)
	}
	if stComb.ShuffleBytes >= stPlain.ShuffleBytes {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d", stComb.ShuffleBytes, stPlain.ShuffleBytes)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	if counts["a"] != "1000" || counts["b"] != "400" {
		t.Fatalf("combined counts wrong: %v", counts)
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := New(2)
	job := Job{
		Name: "grep",
		Map: func(k, v string, emit func(k, v string)) {
			if strings.Contains(v, "match") {
				emit(k, v)
			}
		},
		NumReducers: 1,
	}
	// Keys descend, so any key sort on the map-only path would reorder them.
	input := []KV{{"9", "no"}, {"8", "a match here"}, {"7", "match again"}, {"6", "nothing"},
		{"5", "match"}, {"4", "match"}, {"3", "no"}, {"2", "match"}, {"1", "match"}}
	var matches []KV
	for _, kv := range input {
		if strings.Contains(kv.Value, "match") {
			matches = append(matches, kv)
		}
	}
	out, st, err := e.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, matches) {
		t.Fatalf("map-only output %v, want input order %v", out, matches)
	}
	if st.OutputRecords != int64(len(matches)) {
		t.Fatalf("stats output %d", st.OutputRecords)
	}

	// With several partitions the output is each mapper's buckets in
	// partition order, each bucket still in input order.
	job.NumReducers = 0
	out, _, err = e.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	var want []KV
	for _, split := range [][]KV{input[:len(input)/2], input[len(input)/2:]} {
		for p := 0; p < 2; p++ {
			for _, kv := range split {
				if strings.Contains(kv.Value, "match") && HashPartition(kv.Key, 2) == p {
					want = append(want, kv)
				}
			}
		}
	}
	if !slices.Equal(out, want) {
		t.Fatalf("map-only output %v, want mapper then partition order %v", out, want)
	}
}

func TestMissingMapper(t *testing.T) {
	e := New(1)
	if _, _, err := e.Run(Job{Name: "bad"}, nil); err == nil {
		t.Fatal("job without mapper accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	e := New(4)
	out, st, err := e.Run(wordCountJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.MapInputRecords != 0 {
		t.Fatal("empty input should produce empty output")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	input := make([]KV, 500)
	g := stats.NewRNG(1)
	for i := range input {
		input[i] = KV{strconv.Itoa(i), g.RandomWord(3, 6) + " " + g.RandomWord(3, 6)}
	}
	norm := func(out []KV) []KV {
		s := append([]KV(nil), out...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Key != s[j].Key {
				return s[i].Key < s[j].Key
			}
			return s[i].Value < s[j].Value
		})
		return s
	}
	job := wordCountJob()
	job.NumMappers = 7
	job.NumReducers = 3
	a, _, err := New(1).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := New(8).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := norm(a), norm(b)
	if len(na) != len(nb) {
		t.Fatalf("lengths differ: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("record %d differs: %v vs %v", i, na[i], nb[i])
		}
	}
}

func TestSortWithRangePartitioner(t *testing.T) {
	g := stats.NewRNG(2)
	input := make([]KV, 2000)
	for i := range input {
		input[i] = KV{g.RandomWord(5, 10), "v"}
	}
	splits := SampleSplits(input, 4, 500, g)
	job := Job{
		Name:        "sort",
		Map:         func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce:      func(k string, vs []string, emit func(k, v string)) { emit(k, strconv.Itoa(len(vs))) },
		Partition:   RangePartitioner(splits),
		NumReducers: 4,
	}
	out, _, err := New(4).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	// With a range partitioner, the concatenated partitions are globally
	// key-sorted.
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			t.Fatalf("output not globally sorted at %d: %q < %q", i, out[i].Key, out[i-1].Key)
		}
	}
}

func TestRangePartitionerBounds(t *testing.T) {
	p := RangePartitioner([]string{"h", "p"})
	if p("a", 3) != 0 {
		t.Fatal("low key should route to partition 0")
	}
	if p("m", 3) != 1 {
		t.Fatal("middle key should route to partition 1")
	}
	if p("z", 3) != 2 {
		t.Fatal("high key should route to last partition")
	}
	if p("z", 2) != 1 {
		t.Fatal("partition index must clamp to n-1")
	}
}

func TestSampleSplitsDegenerate(t *testing.T) {
	g := stats.NewRNG(3)
	if SampleSplits(nil, 4, 10, g) != nil {
		t.Fatal("empty input should give nil splits")
	}
	if SampleSplits([]KV{{"a", ""}}, 1, 10, g) != nil {
		t.Fatal("single partition should give nil splits")
	}
	splits := SampleSplits([]KV{{"a", ""}, {"b", ""}, {"c", ""}, {"d", ""}}, 2, 100, g)
	if len(splits) != 1 {
		t.Fatalf("splits %v", splits)
	}
}

func TestStackInterface(t *testing.T) {
	e := New(2)
	if e.Name() == "" || e.Type() != stacks.TypeMapReduce {
		t.Fatal("stack identity wrong")
	}
	if e.Workers() != 2 {
		t.Fatal("workers accessor wrong")
	}
	info := stacks.Describe(e)
	if info.Type != stacks.TypeMapReduce {
		t.Fatal("Describe wrong")
	}
}

func TestWorkerClamp(t *testing.T) {
	if New(0).Workers() != 1 {
		t.Fatal("workers should clamp to 1")
	}
}

func TestIterativeChaining(t *testing.T) {
	// Two chained jobs: first counts words, second buckets counts — the
	// multi-operation pattern workloads use.
	e := New(4)
	input := []KV{{"1", "x x x y y z"}}
	first, _, err := e.Run(wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	second := Job{
		Name: "histogram",
		Map: func(k, v string, emit func(k, v string)) {
			emit(v, k) // count -> word
		},
		Reduce: func(count string, words []string, emit func(k, v string)) {
			emit(count, fmt.Sprintf("%d", len(words)))
		},
	}
	out, _, err := e.Run(second, first)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range out {
		got[kv.Key] = kv.Value
	}
	// one word with count 3 (x), one with 2 (y), one with 1 (z)
	if got["3"] != "1" || got["2"] != "1" || got["1"] != "1" {
		t.Fatalf("histogram wrong: %v", got)
	}
}

// stableSortOracle is the brute-force reference for Run: each mapper's split
// emits into per-partition buckets, a combiner folds each bucket after a
// stable sort, and each partition is the mapper buckets concatenated in
// mapper order, stably sorted, grouped and reduced.
func stableSortOracle(job Job, workers int, input []KV) ([]KV, Stats) {
	numMappers := job.NumMappers
	if numMappers <= 0 {
		numMappers = workers
	}
	numMappers = max(min(numMappers, len(input)), 1)
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = workers
	}
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}
	fold := func(f Reducer, recs []KV) (out []KV, groups int64) {
		slices.SortStableFunc(recs, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
		for i := 0; i < len(recs); {
			j := i
			var values []string
			for ; j < len(recs) && recs[j].Key == recs[i].Key; j++ {
				values = append(values, recs[j].Value)
			}
			f(recs[i].Key, values, func(k, v string) { out = append(out, KV{k, v}) })
			groups++
			i = j
		}
		return out, groups
	}
	st := Stats{MapInputRecords: int64(len(input))}
	parts := make([][]KV, numReducers)
	for m := 0; m < numMappers; m++ {
		buckets := make([][]KV, numReducers)
		for _, rec := range input[len(input)*m/numMappers : len(input)*(m+1)/numMappers] {
			job.Map(rec.Key, rec.Value, func(k, v string) {
				p := partition(k, numReducers)
				buckets[p] = append(buckets[p], KV{k, v})
				st.MapOutputRecords++
			})
		}
		for p, b := range buckets {
			if job.Combine != nil {
				b, _ = fold(job.Combine, b)
				st.CombineOutRecords += int64(len(b))
			}
			parts[p] = append(parts[p], b...)
		}
	}
	var out []KV
	for _, part := range parts {
		for _, kv := range part {
			st.ShuffleBytes += int64(len(kv.Key) + len(kv.Value))
		}
		reduced, groups := fold(job.Reduce, part)
		out = append(out, reduced...)
		st.ReduceGroups += groups
	}
	st.OutputRecords = int64(len(out))
	return out, st
}

func TestShuffleMatchesStableSortOracle(t *testing.T) {
	g := stats.NewRNG(13)
	keys := []string{"a", "b", "ab", "ba", "c", "", "zz", "b "}
	// Values name their input record and emit position, and both the
	// combiner and the reducer join them in the order they arrive, so any
	// change to value order within a group changes the output.
	job := Job{
		Name: "oracle",
		Map: func(k, v string, emit func(k, v string)) {
			n, _ := strconv.Atoi(v)
			for i := 0; i < n%4; i++ {
				emit(keys[(n+i*i)%len(keys)], k+"."+strconv.Itoa(i))
			}
		},
		Reduce: func(k string, vs []string, emit func(k, v string)) {
			emit(k, strings.Join(vs, ","))
			if len(vs) > 3 {
				emit(k, strconv.Itoa(len(vs)))
			}
		},
	}
	combiners := []Reducer{
		func(k string, vs []string, emit func(k, v string)) { emit(k, strings.Join(vs, "+")) },
		// Renaming keys breaks the combiner contract, but the engine must
		// still hand reducers key-sorted input: "a" -> "ax" sorts after "ab".
		func(k string, vs []string, emit func(k, v string)) { emit(k+"x", strings.Join(vs, "+")) },
	}
	partitioners := []Partitioner{nil, RangePartitioner([]string{"b"}), func(string, int) int { return 0 }}
	for trial := 0; trial < 200; trial++ {
		input := make([]KV, g.IntN(60))
		for i := range input {
			input[i] = KV{strconv.Itoa(i), strconv.Itoa(g.IntN(1000))}
		}
		workers := 1 + g.IntN(5)
		j := job
		j.NumMappers = g.IntN(8)
		j.NumReducers = g.IntN(5)
		j.Partition = partitioners[g.IntN(len(partitioners))]
		if c := g.IntN(len(combiners) + 1); c < len(combiners) {
			j.Combine = combiners[c]
		}
		name := fmt.Sprintf("trial %d (workers %d, mappers %d, reducers %d, combiner %v)",
			trial, workers, j.NumMappers, j.NumReducers, j.Combine != nil)
		got, st, err := New(workers).Run(j, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, wantSt := stableSortOracle(j, workers, input)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: output\n%v\nwant\n%v", name, got, want)
		}
		if st != wantSt {
			t.Fatalf("%s: stats %+v, want %+v", name, st, wantSt)
		}
	}
}
