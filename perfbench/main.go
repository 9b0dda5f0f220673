// Command perfbench is bdbench's end-to-end benchmark. It runs one of three
// committed scenarios (scenarios/*.json) through the public run path for a
// fixed measuring time and prints, as the last line of its output, one JSON
// object holding the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) that BENCHMARK.json names.
//
// Every iteration runs in a fresh child process — the same binary, selected
// by an environment variable — so each iteration pays what one `bdbench run`
// pays (cold caches, an empty heap) and reports its own peak RSS. The child
// writes the run's artifact; the parent decodes it and computes every metric
// from the artifact's raw sample streams, outside the program under test.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload kv-serving --seed 2014 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/scenario"
)

// childEnv marks a process as one measured iteration rather than the parent
// that runs iterations and folds their results.
const childEnv = "PERFBENCH_CHILD"

// config is one invocation's settings; the child receives the same flags.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	// benchmark is the path of BENCHMARK.json, which names the metrics and
	// their units.
	benchmark string
	// workdir holds artifacts while the run lasts (parent), out is the
	// artifact path of one iteration (child).
	workdir string
	out     string
	traced  bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&c.seed, "seed", 0, "seed the scenario's inputs are generated from")
	fs.IntVar(&c.seconds, "seconds", 30, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from traced iterations")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny scales and the fewest iterations (the benchmark's own tests)")
	fs.StringVar(&c.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition naming the metrics")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for iteration artifacts")
	fs.StringVar(&c.out, "out", "", "artifact path (child iterations only)")
	fs.BoolVar(&c.traced, "traced", false, "record spans (child iterations only)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookupWorkload(c.workload); !ok {
		return c, fmt.Errorf("unknown workload %q (have: %v)", c.workload, workloadNames())
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("--seconds must be positive, got %d", c.seconds)
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkDef, error) {
	var b benchmarkDef
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// iteration is one child run: what the child measured in-process, and what
// the parent computed from its artifact.
type iteration struct {
	child  childResult
	values map[string]float64
	counts opCounts
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	def, err := loadBenchmark(cfg.benchmark)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := run(context.Background(), cfg, def, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run drives the iterations of one invocation and folds them into the
// result: medians over iterations, end-to-end metrics from untraced
// iterations only, per-layer metrics from traced ones.
func run(ctx context.Context, cfg config, def benchmarkDef, stderr io.Writer) (result, error) {
	w, _ := lookupWorkload(cfg.workload)
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Iterations alternate untraced and traced when tracing, so both kinds
	// see the same conditions and their difference is the tracing overhead.
	minIters := 3
	if cfg.trace {
		minIters = 4
	}
	if cfg.smoke {
		minIters = 1
		if cfg.trace {
			minIters = 2
		}
	}
	budget := time.Duration(cfg.seconds) * time.Second
	// A run must end within 180 s even if an iteration hangs: the deadline
	// kills the child and fails the run.
	ctx, cancel := context.WithTimeout(ctx, budget+2*time.Minute)
	defer cancel()
	start := time.Now()
	var longest time.Duration
	var plain, traced []iteration
	var failures []string
	for i := 0; ; i++ {
		if i >= minIters && (time.Since(start)+longest > budget || cfg.smoke) {
			break
		}
		t0 := time.Now()
		isTraced := cfg.trace && i%2 == 1
		it, err := runIteration(ctx, cfg, w, dir, i, isTraced, stderr)
		if err != nil {
			return result{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		longest = max(longest, time.Since(t0))
		logIteration(stderr, w.name, i, isTraced, def.EndToEnd, it.values)
		failures = append(failures, it.child.Checks...)
		if isTraced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	failures = append(failures, checkAcross(cfg, w, append(append([]iteration(nil), plain...), traced...))...)
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}

	res := result{Correct: len(failures) == 0, Metrics: map[string]metricValue{}}
	for _, it := range plain {
		res.Attempted += it.counts.attempted
		res.Failed += it.counts.failed
	}
	emit := func(defs []metricDef, values map[string]float64) error {
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				return fmt.Errorf("metric %q is not measured by workload %s", d.Name, w.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %q is %v on workload %s", d.Name, v, w.name)
			}
			res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		return nil
	}
	if !cfg.trace {
		return res, emit(def.EndToEnd, medians(plain))
	}
	layer, untraced := medians(traced), medians(plain)
	for _, name := range aliases {
		layer[name] = untraced[name]
	}
	layer["trace.overhead_ms"] = (median(field(traced, "wall_s")) - median(field(plain, "wall_s"))) * 1e3
	if err := writeSpans(filepath.Join(cfg.workdir, w.name+".spans.json"), traced); err != nil {
		return res, err
	}
	return res, emit(def.PerLayer, layer)
}

// runIteration starts one child, waits for it, and measures its artifact.
func runIteration(ctx context.Context, cfg config, w *workload, dir string, i int, traced bool, stderr io.Writer) (iteration, error) {
	exe, err := os.Executable()
	if err != nil {
		return iteration{}, err
	}
	blob := filepath.Join(dir, fmt.Sprintf("iter-%02d.blob", i))
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-out", blob,
		"-traced=" + strconv.FormatBool(traced),
		"-smoke=" + strconv.FormatBool(cfg.smoke),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return iteration{}, fmt.Errorf("child: %w", err)
	}

	var cr childResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &cr); err != nil {
		return iteration{}, fmt.Errorf("child output: %w", err)
	}
	run, err := bdbench.ReadRun(blob)
	if err != nil {
		return iteration{}, err
	}
	if err := os.Remove(blob); err != nil {
		return iteration{}, err
	}
	var outcome scenario.Outcome
	if err := json.Unmarshal(run.Meta.Payload, &outcome); err != nil {
		return iteration{}, fmt.Errorf("artifact payload: %w", err)
	}
	values, counts := measure(w, run, &outcome)
	for k, v := range cr.Values {
		values[k] = v
	}
	return iteration{child: cr, values: values, counts: counts}, nil
}

// checkAcross runs the checks that need every iteration: the operation
// pattern's digest is seed-determined, so every iteration must report the
// same value, and it must equal the value recorded for this seed.
func checkAcross(cfg config, w *workload, its []iteration) []string {
	if w.patternDigest == nil {
		return nil
	}
	var fails []string
	want, recorded := w.patternDigest[cfg.seed]
	if cfg.smoke {
		recorded = false // digests are recorded for the full-size scenario
	}
	for i, it := range its {
		got := it.child.PatternDigest
		if got == 0 {
			fails = append(fails, fmt.Sprintf("iteration %d: no pattern_digest counter", i))
			continue
		}
		if recorded && got != want {
			fails = append(fails, fmt.Sprintf("iteration %d: pattern_digest %d, recorded for seed %d: %d", i, got, cfg.seed, want))
		}
		if got != its[0].child.PatternDigest {
			fails = append(fails, fmt.Sprintf("iteration %d: pattern_digest %d differs from iteration 0's %d", i, got, its[0].child.PatternDigest))
		}
		if got != it.child.ReferenceDigest {
			fails = append(fails, fmt.Sprintf("iteration %d: pattern_digest %d differs from the single-worker reference %d", i, got, it.child.ReferenceDigest))
		}
	}
	return fails
}

// logIteration prints one iteration's end-to-end figures to stderr, for a
// reader watching how a run's iterations vary.
func logIteration(stderr io.Writer, workload string, i int, traced bool, defs []metricDef, values map[string]float64) {
	line := fmt.Sprintf("perfbench: %s iteration %d traced=%v", workload, i, traced)
	for _, d := range defs {
		line += fmt.Sprintf(" %s=%.6g", d.Name, values[d.Name])
	}
	fmt.Fprintln(stderr, line)
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func field(its []iteration, name string) []float64 {
	out := make([]float64, 0, len(its))
	for _, it := range its {
		if v, ok := it.values[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// medians folds iterations metric by metric.
func medians(its []iteration) map[string]float64 {
	out := map[string]float64{}
	if len(its) == 0 {
		return out
	}
	for name := range its[0].values {
		out[name] = median(field(its, name))
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeSpans writes the traced iterations' spans, one list per iteration,
// once the run is over.
func writeSpans(path string, its []iteration) error {
	var all [][]span
	for _, it := range its {
		all = append(all, it.child.Spans)
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
