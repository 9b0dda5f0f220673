// Command benchdiff is the CI benchmark-regression gate: it parses `go test
// -bench -benchmem` output, records every benchmark's ns/op, B/op and
// allocs/op as a results JSON (the artifact that seeds the performance
// trajectory), and compares the gated subset — datagen, loadgen, collector
// and engine benches by default — against a checked-in baseline. It fails
// on a >25% geomean ns/op regression, and independently on any allocs/op
// regression: a bench whose baseline is 0 allocs/op must stay at exactly 0
// (the zero-allocation contract), and a nonzero baseline may not grow past
// its own threshold.
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./internal/tools/benchdiff \
//	    -baseline testdata/bench.baseline.json -out bench.results.json
//
// Regenerate the baseline after an intentional performance change:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./internal/tools/benchdiff \
//	    -update -baseline testdata/bench.baseline.json
//
// Absolute ns/op differ across machines, so the time gate calibrates: the
// geomean ratio of the non-gated benches estimates the machine-speed factor
// between baseline and current run, and the gated geomean is judged
// relative to it. Disable with -calibrate=false when baseline and run come
// from the same machine. Allocation counts are deterministic per build —
// they never calibrate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's recorded measurements. AllocsPerOp and
// BytesPerOp are pointers because absence and zero mean different things:
// a run without -benchmem has no allocation columns at all, while a
// present zero is the zero-allocation contract the gate enforces exactly.
type Bench struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// UnmarshalJSON accepts both the current object shape and the legacy
// baseline format, where each benchmark was a bare ns/op number.
func (b *Bench) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if !strings.HasPrefix(trimmed, "{") {
		return json.Unmarshal(data, &b.NsPerOp)
	}
	type alias Bench // drop methods to avoid recursion
	return json.Unmarshal(data, (*alias)(b))
}

// Results is the JSON shape of both the checked-in baseline and the
// uploaded artifact.
type Results struct {
	// Note documents how the numbers were produced.
	Note string `json:"note,omitempty"`
	// Go is the toolchain that ran the benches.
	Go string `json:"go,omitempty"`
	// Summary condenses the gated subset into the two numbers the gate
	// judges, so a snapshot answers "did the hot paths move?" without
	// re-deriving the filter over the full benchmark map.
	Summary *Summary `json:"summary,omitempty"`
	// Benchmarks maps bench name (CPU suffix stripped) to its measurements.
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Summary is the top-level digest of one run's gated benches. Geomean is
// over absolute ns/op — comparable between two snapshots from the same
// machine, same caveat as every other absolute time in the file. Allocs
// are summed, not averaged: the zero-allocation contract makes the sum a
// meaningful scalar (any nonzero term is a named budget, and growth means
// a hot path started allocating).
type Summary struct {
	// Filter is the comma-separated gate filter the summary was built with.
	Filter string `json:"filter"`
	// GatedBenches / TotalBenches count the filter's selection.
	GatedBenches int `json:"gated_benches"`
	TotalBenches int `json:"total_benches"`
	// GeomeanNsPerOp is the geometric mean ns/op of the gated benches.
	GeomeanNsPerOp float64 `json:"geomean_ns_per_op"`
	// TotalAllocsPerOp sums allocs/op across gated benches that report it.
	TotalAllocsPerOp float64 `json:"total_allocs_per_op"`
}

// summarize builds the Summary for a parsed benchmark map under the given
// gate filter. Geomean rounds to 3 decimals so snapshots don't churn on
// float noise in the last bits.
func summarize(benchmarks map[string]Bench, filters []string) *Summary {
	s := &Summary{Filter: strings.Join(filters, ","), TotalBenches: len(benchmarks)}
	var times []float64
	for _, name := range sortedNames(benchmarks) {
		if !matchesAny(name, filters) {
			continue
		}
		b := benchmarks[name]
		s.GatedBenches++
		times = append(times, b.NsPerOp)
		if b.AllocsPerOp != nil {
			s.TotalAllocsPerOp += *b.AllocsPerOp
		}
	}
	if len(times) > 0 {
		s.GeomeanNsPerOp = math.Round(geomean(times)*1000) / 1000
	}
	return s
}

// benchLine matches one `go test -bench` result line:
// "BenchmarkName/sub-8   	  123	  4567 ns/op	  32 B/op	  1 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// bytesCol and allocsCol match the -benchmem columns anywhere after the
// ns/op field (custom b.ReportMetric columns may sit between them).
var (
	bytesCol  = regexp.MustCompile(`\s([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// cpuSuffix matches a candidate GOMAXPROCS suffix at the end of a name.
var cpuSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench extracts benchmark name → measurements from -bench output.
// The GOMAXPROCS suffix is stripped so results compare across machines —
// but only when every name of the run carries the same one: go test
// appends "-N" to every benchmark (and nothing at GOMAXPROCS=1), so a
// uniform trailing "-N" is the suffix, while a varying one
// (sub-benchmarks like "writers-1"/"writers-2") is part of the name.
// Duplicate names (the same bench in several packages or -count runs) keep
// the best (lowest-ns) run, with that run's allocation columns.
func parseBench(r io.Reader) (map[string]Bench, error) {
	type entry struct {
		name  string
		bench Bench
	}
	var entries []entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			continue
		}
		b := Bench{NsPerOp: ns}
		if bm := bytesCol.FindStringSubmatch(line); bm != nil {
			if v, err := strconv.ParseFloat(bm[1], 64); err == nil {
				b.BytesPerOp = &v
			}
		}
		if am := allocsCol.FindStringSubmatch(line); am != nil {
			if v, err := strconv.ParseFloat(am[1], 64); err == nil {
				b.AllocsPerOp = &v
			}
		}
		entries = append(entries, entry{name: m[1], bench: b})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	suffix := ""
	for i, e := range entries {
		m := cpuSuffix.FindString(e.name)
		if m == "" || (i > 0 && m != suffix) {
			suffix = ""
			break
		}
		suffix = m
	}
	out := map[string]Bench{}
	for _, e := range entries {
		name := strings.TrimSuffix(e.name, suffix)
		if old, ok := out[name]; !ok || e.bench.NsPerOp < old.NsPerOp {
			out[name] = e.bench
		}
	}
	return out, nil
}

// matchesAny reports whether the bench name contains any filter substring
// (case-insensitive).
func matchesAny(name string, filters []string) bool {
	lower := strings.ToLower(name)
	for _, f := range filters {
		if f != "" && strings.Contains(lower, strings.ToLower(f)) {
			return true
		}
	}
	return false
}

// sortedNames returns the map's keys in sorted order.
func sortedNames(m map[string]Bench) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// geomean returns the geometric mean of ratios (1 when empty).
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// diff is the comparison outcome for one gated benchmark.
type diff struct {
	name     string
	old, new Bench
}

// compare judges the gated benches of cur against base. It returns the
// gated per-bench diffs, the gated geomean ns/op ratio (calibrated when
// asked and possible) and the machine-speed factor used.
func compare(base, cur map[string]Bench, filters []string, calibrate bool) (gated []diff, gatedGeo, factor float64) {
	var gatedRatios, otherRatios []float64
	for _, name := range sortedNames(cur) {
		old, ok := base[name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		ratio := cur[name].NsPerOp / old.NsPerOp
		if matchesAny(name, filters) {
			gated = append(gated, diff{name: name, old: old, new: cur[name]})
			gatedRatios = append(gatedRatios, ratio)
		} else {
			otherRatios = append(otherRatios, ratio)
		}
	}
	factor = 1.0
	if calibrate && len(otherRatios) > 0 {
		factor = geomean(otherRatios)
	}
	return gated, geomean(gatedRatios) / factor, factor
}

// allocVerdict judges one gated bench's allocs/op against its baseline.
// Exact-zero semantics: a zero-alloc baseline tolerates no allocation at
// all — the whole point of a zero-allocation contract is that "0.4 on
// average" means a new allocation sneaked onto the hot path. Nonzero
// baselines get a ratio threshold. Allocation counts are per-build
// deterministic, so no machine calibration applies. Returns a non-empty
// reason when the bench fails the gate.
func allocVerdict(d diff, threshold float64) string {
	if d.old.AllocsPerOp == nil || d.new.AllocsPerOp == nil {
		return "" // no allocation data on one side: nothing to judge
	}
	oldA, newA := *d.old.AllocsPerOp, *d.new.AllocsPerOp
	if oldA == 0 {
		if newA > 0 {
			return fmt.Sprintf("zero-alloc bench now allocates: %g allocs/op (baseline 0)", newA)
		}
		return ""
	}
	if newA > oldA*threshold {
		return fmt.Sprintf("allocs/op %g > baseline %g × %.2f", newA, oldA, threshold)
	}
	return ""
}

// fmtAllocs renders an optional allocs/op value for the report table.
func fmtAllocs(v *float64) string {
	if v == nil {
		return "-"
	}
	return strconv.FormatFloat(*v, 'f', -1, 64)
}

func run() error {
	in := flag.String("in", "-", "bench output to read (- = stdin)")
	baselinePath := flag.String("baseline", "testdata/bench.baseline.json", "checked-in baseline JSON")
	outPath := flag.String("out", "", "write the full parsed results JSON here (the CI artifact)")
	outBlob := flag.String("out-blob", "", "additionally write the results as a run artifact (internal/runstore blob; diff with `bdbench compare`)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	threshold := flag.Float64("threshold", 1.25, "fail when the gated geomean ns/op ratio exceeds this")
	allocThreshold := flag.Float64("alloc-threshold", 1.25,
		"fail when a gated bench's allocs/op exceeds baseline × this (zero baselines must stay exactly 0)")
	filter := flag.String("filter", "Datagen,Collector,Schedule,Dispatch,RepOverhead,MapReduceWordCount,FreshEngine",
		"comma-separated substrings selecting the gated benches")
	calibrate := flag.Bool("calibrate", true,
		"normalize ns/op by the non-gated benches' geomean (machine-speed factor)")
	flag.Parse()

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	cur, err := parseBench(src)
	if err != nil {
		return err
	}
	filters := strings.Split(*filter, ",")
	results := Results{
		Note:       "ns/op, B/op and allocs/op per benchmark (CPU suffix stripped); produced by internal/tools/benchdiff",
		Go:         runtime.Version(),
		Summary:    summarize(cur, filters),
		Benchmarks: cur,
	}
	writeJSON := func(path string) error {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if *outPath != "" {
		if err := writeJSON(*outPath); err != nil {
			return err
		}
		fmt.Printf("benchdiff: wrote %d benches to %s\n", len(cur), *outPath)
	}
	if *outBlob != "" {
		if err := writeBenchBlob(*outBlob, results); err != nil {
			return err
		}
		fmt.Printf("benchdiff: wrote run artifact to %s\n", *outBlob)
	}
	if *update {
		if err := writeJSON(*baselinePath); err != nil {
			return err
		}
		fmt.Printf("benchdiff: baseline %s updated (%d benches)\n", *baselinePath, len(cur))
		return nil
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -update to create it): %w", err)
	}
	var base Results
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", *baselinePath, err)
	}
	gated, gatedGeo, factor := compare(base.Benchmarks, cur, filters, *calibrate)
	if len(gated) == 0 {
		return fmt.Errorf("no gated benches matched both baseline and input (filter %q)", *filter)
	}
	// A gated bench present on only one side silently leaves the gate;
	// surface both directions so renames, removals and benches added
	// without -update don't pass unseen.
	for _, name := range sortedNames(base.Benchmarks) {
		if matchesAny(name, filters) {
			if _, ok := cur[name]; !ok {
				fmt.Printf("benchdiff: WARNING: gated baseline bench %q missing from input (renamed or removed?)\n", name)
			}
		}
	}
	for _, name := range sortedNames(cur) {
		if matchesAny(name, filters) {
			if _, ok := base.Benchmarks[name]; !ok {
				fmt.Printf("benchdiff: WARNING: gated bench %q not in baseline (run -update to start gating it)\n", name)
			}
		}
	}
	var allocFails []string
	fmt.Printf("%-60s %14s %14s %8s %12s %12s\n",
		"gated benchmark", "baseline ns/op", "current ns/op", "ratio", "base allocs", "cur allocs")
	for _, d := range gated {
		fmt.Printf("%-60s %14.0f %14.0f %8.2f %12s %12s\n",
			d.name, d.old.NsPerOp, d.new.NsPerOp, d.new.NsPerOp/d.old.NsPerOp,
			fmtAllocs(d.old.AllocsPerOp), fmtAllocs(d.new.AllocsPerOp))
		if reason := allocVerdict(d, *allocThreshold); reason != "" {
			allocFails = append(allocFails, fmt.Sprintf("%s: %s", d.name, reason))
		}
	}
	fmt.Printf("\nmachine-speed factor (non-gated geomean): %.3f\n", factor)
	fmt.Printf("gated geomean ns/op ratio (calibrated): %.3f (threshold %.2f)\n", gatedGeo, *threshold)
	for _, f := range allocFails {
		fmt.Printf("benchdiff: ALLOC REGRESSION: %s\n", f)
	}
	if len(allocFails) > 0 {
		return fmt.Errorf("%d gated bench(es) regressed on allocs/op", len(allocFails))
	}
	if gatedGeo > *threshold {
		return fmt.Errorf("gated benches regressed: geomean ratio %.3f > %.2f", gatedGeo, *threshold)
	}
	fmt.Println("benchdiff: gate passed")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
