package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
)

// rssLimit guards memory: a scenario whose iteration outgrows it fails the
// run instead of pushing the 8 GB host toward the OOM killer, as graph
// entries at scale 16 did. The full-size scenarios peak below 400 MiB.
const rssLimit = 2 << 30

// childResult is what one iteration measured in-process. Values holds the
// metrics only the child can take (process resources, direct calls into
// layers, span self times); everything else the parent computes from the
// artifact.
type childResult struct {
	Values map[string]float64 `json:"values"`
	// Checks lists every output check that failed; empty means correct.
	Checks []string `json:"checks,omitempty"`
	// PatternDigest is the operation pattern's digest counter, and
	// ReferenceDigest the same pattern's digest from a single-worker run
	// (zero when the scenario has no pattern entry).
	PatternDigest   int64  `json:"patternDigest,omitempty"`
	ReferenceDigest int64  `json:"referenceDigest,omitempty"`
	Spans           []span `json:"spans,omitempty"`
}

func childMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 2
	}
	res, err := iterate(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// iterate runs the workload's scenario once, checks its outputs and, when
// traced, times the direct calls into the layers the run does not expose.
func iterate(ctx context.Context, cfg config) (childResult, error) {
	w, _ := lookupWorkload(cfg.workload)
	spec, err := w.scenario(cfg.seed, cfg.smoke)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{Values: map[string]float64{}}
	tr := newTracer()

	opts := []bdbench.Option{bdbench.WithRunOutput(cfg.out), bdbench.WithSamples(w.samples)}
	var execWall, taskWall time.Duration
	if cfg.traced {
		opts = append(opts, tracedExecution(tr, &execWall, &taskWall))
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	root := tr.begin("run", "scenario")
	tr.push(root)
	out, runErr := bdbench.Run(ctx, spec, opts...)
	tr.pop()
	tr.end(root)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res.Values["wall_s"] = wall.Seconds()
	res.Values["cpu_s"] = cpu.Seconds()
	rss := maxRSS()
	res.Values["peak_rss_mb"] = float64(rss) / (1 << 20)
	res.Values["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	res.Values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res.Values["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if cfg.traced {
		res.Values["engine.exec_s"] = execWall.Seconds()
		res.Values["engine.overhead_ms"] = float64(execWall-taskWall) / 1e6
	}

	if runErr != nil {
		res.Checks = append(res.Checks, fmt.Sprintf("run: %v", runErr))
	}
	if rss > rssLimit {
		res.Checks = append(res.Checks, fmt.Sprintf("peak RSS %d MiB exceeds the %d MiB guard", rss>>20, rssLimit>>20))
	}
	if out == nil {
		return res, nil
	}
	res.Checks = append(res.Checks, checkOutcome(out)...)
	checks, err := checkArtifact(cfg.out, out, tr, res.Values)
	if err != nil {
		return res, err
	}
	res.Checks = append(res.Checks, checks...)

	if p := patternOf(spec); p != nil {
		res.PatternDigest = digestCounter(out)
		ref, err := referenceDigest(ctx, spec)
		if err != nil {
			return res, err
		}
		res.ReferenceDigest = ref
	}
	if cfg.traced {
		if err := probeLayers(w, spec, cfg, tr, res.Values); err != nil {
			return res, err
		}
		res.Spans = tr.spans
		for _, layer := range spanLayers {
			res.Values[layer+".self_ms"] = 0
		}
		for layer, d := range tr.selfTimes() {
			res.Values[layer+".self_ms"] = float64(d) / 1e6
		}
	}
	return res, nil
}

// spanLayers are the layers the benchmark's spans are attributed to.
var spanLayers = []string{"scenario", "engine", "workload", "runstore", "report", "datagen", "loadgen", "opcompose"}

// tracedExecution wraps the engine behind the scenario's Execute seam and
// follows the engine's task events, recording one span for the Execution
// step and one per task.
func tracedExecution(tr *tracer, execWall, taskWall *time.Duration) bdbench.Option {
	return func(o *scenario.Options) {
		tasks := map[int]int{}
		o.OnEvent = func(ev bdbench.Event) {
			switch ev.Kind {
			case bdbench.EventTaskStart:
				tasks[ev.Task] = tr.begin("task/"+ev.Workload, "workload")
			case bdbench.EventTaskDone:
				*taskWall += tr.end(tasks[ev.Task])
			}
		}
		o.Execute = func(ctx context.Context, _ scenario.Spec, ts []engine.Task, cfg engine.Config) ([]engine.TaskResult, []string, error) {
			id := tr.begin("execute", "engine")
			tr.push(id)
			results := engine.Run(ctx, ts, cfg)
			tr.pop()
			*execWall = tr.end(id)
			return results, nil, nil
		}
	}
}

// checkOutcome applies the checks that need only the in-memory outcome: no
// failed workload, no degraded slice, and no YCSB operation error.
func checkOutcome(out *scenario.Outcome) []string {
	var fails []string
	if out.Failures != 0 {
		fails = append(fails, fmt.Sprintf("%d workload(s) failed", out.Failures))
	}
	if len(out.Degraded) != 0 {
		fails = append(fails, fmt.Sprintf("degraded: %v", out.Degraded))
	}
	for _, r := range out.Results {
		if r.Err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", r.Workload, r.Err))
		}
		if n := r.Result.Counters["errors"]; n != 0 {
			fails = append(fails, fmt.Sprintf("%s: errors counter is %d", r.Workload, n))
		}
		if l := r.Load; l != nil && (l.Errors != 0 || l.Skipped != 0 || l.Dispatched != l.Scheduled) {
			fails = append(fails, fmt.Sprintf("%s: %d of %d requests dispatched, %d errors, %d skipped",
				r.Workload, l.Dispatched, l.Scheduled, l.Errors, l.Skipped))
		}
	}
	return fails
}

// checkArtifact verifies the artifact the run wrote and times the runstore
// and report calls on the way: the blob decodes and re-encodes to the same
// bytes, rebuilding it from the in-memory outcome gives the same bytes, no
// stream dropped samples, and re-rendering the decoded run is byte-equal to
// rendering the live outcome (what `bdbench show` relies on).
func checkArtifact(path string, out *scenario.Outcome, tr *tracer, values map[string]float64) ([]string, error) {
	var fails []string
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	values["runstore.blob_mb"] = float64(len(raw)) / (1 << 20)
	want := runstore.DigestBytes(raw)

	id := tr.begin("decode", "runstore")
	dec, err := runstore.Decode(raw)
	values["runstore.decode_ms"] = float64(tr.end(id)) / 1e6
	if err != nil {
		return []string{fmt.Sprintf("artifact decode: %v", err)}, nil
	}
	id = tr.begin("encode", "runstore")
	again, err := runstore.Encode(dec)
	values["runstore.encode_ms"] = float64(tr.end(id)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("artifact re-encode: %w", err)
	}
	if got := runstore.DigestBytes(again); got != want {
		fails = append(fails, fmt.Sprintf("artifact round trip: digest %s, written %s", got, want))
	}

	id = tr.begin("build", "runstore")
	built, err := scenario.BuildArtifactAt(out, bdbench.Version, dec.Meta.CreatedUnix)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("artifact rebuild: %w", err)
	}
	if got, err := built.Digest(); err != nil || got != want {
		fails = append(fails, fmt.Sprintf("artifact rebuilt from the outcome: digest %s (%v), written %s", got, err, want))
	}
	for _, s := range dec.Series {
		if s.Dropped != 0 {
			fails = append(fails, fmt.Sprintf("series %s/%s dropped %d samples", s.Workload, s.Op, s.Dropped))
		}
	}

	id = tr.begin("compare", "runstore")
	cmp := runstore.Compare(dec, dec, runstore.CompareOptions{})
	values["runstore.compare_ms"] = float64(tr.end(id)) / 1e6
	if err := cmp.Err(); err != nil {
		fails = append(fails, fmt.Sprintf("artifact compared with itself: %v", err))
	}

	var shown, live bytes.Buffer
	id = tr.begin("render", "report")
	err = bdbench.RenderRun(&shown, dec, "text")
	values["report.render_ms"] = float64(tr.end(id)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("render saved run: %w", err)
	}
	if err := bdbench.NewTextReporter().Report(&live, out); err != nil {
		return nil, fmt.Errorf("render outcome: %w", err)
	}
	if !bytes.Equal(shown.Bytes(), live.Bytes()) {
		fails = append(fails, "re-rendered artifact differs from the live report")
	}
	return fails, nil
}

// probeLayers times the direct calls into layers whose cost a run folds
// into larger steps: spec normalization, pattern compilation, corpus
// generation and open-loop schedule materialization.
func probeLayers(w *workload, spec bdbench.Scenario, cfg config, tr *tracer, values map[string]float64) error {
	d, err := timeMedian(tr, "normalize", "scenario", func() error {
		spec.Normalized()
		return nil
	})
	if err != nil {
		return err
	}
	values["scenario.normalize_us"] = float64(d) / 1e3
	// Resolution is timed by the run's planning step (scenario.plan_ms);
	// the direct call leaves a span for the scenario layer's self time.
	n := spec.Normalized()
	if _, err := timeMedian(tr, "tasks", "scenario", func() error {
		_, err := n.Tasks(bdbench.DefaultRegistry())
		return err
	}); err != nil {
		return err
	}

	values["opcompose.compile_us"] = 0
	if p := patternOf(spec); p != nil {
		d, err := timeMedian(tr, "compile", "opcompose", func() error {
			_, err := opcompose.Compile(*p)
			return err
		})
		if err != nil {
			return err
		}
		values["opcompose.compile_us"] = float64(d) / 1e3
	}

	for _, corpus := range corpusNames {
		values["datagen."+corpus+"_mb_per_s"] = 0
	}
	for corpus, scale := range w.corpora(cfg.smoke) {
		var mb float64
		d, err := timeMedian(tr, "datagen/"+corpus, "datagen", func() error {
			st, err := bdbench.DataGen(corpus, bdbench.DataGenOptions{Scale: scale, Workers: 2, Seed: cfg.seed})
			mb = float64(st.Bytes) / (1 << 20)
			return err
		})
		if err != nil {
			return fmt.Errorf("datagen %s: %w", corpus, err)
		}
		values["datagen."+corpus+"_mb_per_s"] = mb / d.Seconds()
	}

	values["loadgen.schedule_ms"] = 0
	if n.Rate > 0 {
		proc, err := loadgen.ParseProcess(n.Arrival)
		if err != nil {
			return err
		}
		if replay, ok := proc.(loadgen.Replay); ok {
			trace, err := traceOf(n.Trace, n.Seed)
			if err != nil {
				return err
			}
			replay.Trace = trace
			proc = replay
		}
		d, err := timeMedian(tr, "schedule", "loadgen", func() error {
			if len(loadgen.Schedule(proc, n.Rate, time.Duration(n.Duration), n.Seed)) == 0 {
				return fmt.Errorf("empty %s schedule", n.Arrival)
			}
			return nil
		})
		if err != nil {
			return err
		}
		values["loadgen.schedule_ms"] = float64(d) / 1e6
	}
	return nil
}

// traceOf extracts the replay trace the way planning does: the corpus at
// scale 1 with the run's seed.
func traceOf(corpus string, seed uint64) (loadgen.Trace, error) {
	cg, ok := datagen.Lookup(corpus)
	if !ok {
		return loadgen.Trace{}, fmt.Errorf("unknown trace corpus %q", corpus)
	}
	raw, _, err := datagen.Build(cg, seed, 1, 0)
	if err != nil {
		return loadgen.Trace{}, err
	}
	return loadgen.TraceFromLog(corpus, raw)
}

// timeMedian calls fn a few times, each in a span, and returns the median
// duration: a single call into a fast layer is too short to time alone.
func timeMedian(tr *tracer, name, layer string, fn func() error) (time.Duration, error) {
	const reps = 5
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		id := tr.begin(name, layer)
		err := fn()
		ds = append(ds, tr.end(id))
		if err != nil {
			return 0, err
		}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[reps/2], nil
}

// referenceDigest runs the scenario's pattern entry alone with one worker
// and one datagen worker and returns its digest: the digest is defined to
// be independent of worker counts.
func referenceDigest(ctx context.Context, spec bdbench.Scenario) (int64, error) {
	p := patternOf(spec)
	var e bdbench.Entry
	for _, en := range spec.Entries {
		if en.Pattern == p {
			e = en
		}
	}
	e.Workers = 1
	ref := bdbench.Scenario{SpecVersion: 2, Entries: []bdbench.Entry{e}, Seed: spec.Seed, Workers: 1, DatagenWorkers: 1, Parallel: 1}
	out, err := bdbench.Run(ctx, ref)
	if err != nil {
		return 0, fmt.Errorf("reference pattern run: %w", err)
	}
	return digestCounter(out), nil
}

func patternOf(spec bdbench.Scenario) *bdbench.Pattern {
	for _, e := range spec.Entries {
		if e.Pattern != nil {
			return e.Pattern
		}
	}
	return nil
}

func digestCounter(out *scenario.Outcome) int64 {
	for _, r := range out.Results {
		if d, ok := r.Result.Counters["pattern_digest"]; ok {
			return d
		}
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
