package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/scenario"
)

// TestMain lets the test binary serve as the child of a smoke run, the way
// the benchmark binary serves as its own.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the run passes its output checks and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := parentMain([]string{
					"--workload", w, "--seed", "2014", "--seconds", "1", "--trace", trace,
					"--smoke", "--benchmark", "../BENCHMARK.json", "--workdir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				var res result
				if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := def.EndToEnd
				if trace == "1" {
					want = def.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be zero", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestOutcomeChecksReject shows the outcome checks flag failed workloads,
// YCSB operation errors and open-loop requests that did not complete.
func TestOutcomeChecksReject(t *testing.T) {
	out := &scenario.Outcome{
		Failures: 1,
		Results: []scenario.Result{
			{Workload: "ycsb-A", Result: metrics.Result{Counters: map[string]int64{"errors": 2}}},
			{Workload: "grep", Load: &loadgen.Stats{Scheduled: 10, Dispatched: 9, Skipped: 1}},
		},
	}
	fails := checkOutcome(out)
	for _, want := range []string{"1 workload(s) failed", "errors counter is 2", "9 of 10 requests dispatched"} {
		if !strings.Contains(strings.Join(fails, "\n"), want) {
			t.Errorf("checks %q miss %q", fails, want)
		}
	}
	if fails := checkOutcome(&scenario.Outcome{}); len(fails) != 0 {
		t.Errorf("clean outcome flagged: %q", fails)
	}
}

// TestArtifactChecks runs a tiny scenario and shows the artifact checks
// pass on its blob and fail on a corrupted blob, on an outcome that does
// not match the blob, and on streams that dropped samples.
func TestArtifactChecks(t *testing.T) {
	spec := bdbench.Scenario{Entries: []bdbench.Entry{{Workload: "wordcount"}}, Seed: 2014, Workers: 2, Parallel: 1}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.blob")
	out, err := bdbench.Run(context.Background(), spec, bdbench.WithRunOutput(path))
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, out *scenario.Outcome) []string {
		t.Helper()
		fails, err := checkArtifact(path, out, newTracer(), map[string]float64{})
		if err != nil {
			return []string{err.Error()}
		}
		return fails
	}
	if fails := check(path, out); len(fails) != 0 {
		t.Fatalf("clean artifact flagged: %q", fails)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	corrupt := filepath.Join(dir, "corrupt.blob")
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if fails := check(corrupt, out); len(fails) == 0 {
		t.Error("corrupted artifact passed")
	}

	other := *out
	other.Results = append([]scenario.Result(nil), out.Results...)
	other.Results[0].Result.Throughput *= 2
	if fails := check(path, &other); len(fails) < 2 {
		t.Errorf("outcome differing from its artifact: want rebuild and render failures, got %q", fails)
	}

	small := filepath.Join(dir, "small.blob")
	pattern := bdbench.Scenario{Entries: []bdbench.Entry{{Pattern: &bdbench.Pattern{Ops: []bdbench.OpWeight{{Op: "scan"}}}}}, Seed: 2014}
	out, err = bdbench.Run(context.Background(), pattern, bdbench.WithRunOutput(small), bdbench.WithSamples(1))
	if err != nil {
		t.Fatal(err)
	}
	if fails := check(small, out); !strings.Contains(strings.Join(fails, "\n"), "dropped") {
		t.Errorf("dropped samples not flagged: %q", fails)
	}
}

// TestPatternDigestCheck shows a digest differing between iterations, from
// the single-worker reference or from the recorded value fails the run.
func TestPatternDigestCheck(t *testing.T) {
	w, _ := lookupWorkload("batch-analytics")
	it := func(got, ref int64) iteration {
		return iteration{child: childResult{PatternDigest: got, ReferenceDigest: ref}}
	}
	cfg := config{seed: primarySeed}
	want := w.patternDigest[primarySeed]
	if fails := checkAcross(cfg, w, []iteration{it(want, want), it(want, want)}); len(fails) != 0 {
		t.Errorf("matching digests flagged: %q", fails)
	}
	if fails := checkAcross(cfg, w, []iteration{it(want, want), it(want+1, want+1)}); len(fails) == 0 {
		t.Error("digests differing between iterations passed")
	}
	if fails := checkAcross(cfg, w, []iteration{it(want, want+1)}); len(fails) == 0 {
		t.Error("digest differing from the reference passed")
	}
	if fails := checkAcross(config{seed: heldOutSeed}, w, []iteration{it(want, want)}); len(fails) == 0 {
		t.Error("digest differing from the recorded value passed")
	}
}
