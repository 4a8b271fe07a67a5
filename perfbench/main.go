// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the compiler, engine and compile service
// through their public Go APIs, checks every result against a
// reference computed during set-up, and prints the metrics as the last
// line of standard output:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it records spans around each layer call, writes them
// under the output directory, and prints the per-layer metrics. Every
// workload reports the same metrics, over its own kind of operation: a
// cold compile (build), a program run (exec) or a request (serve).
// Timings are scaled to a reference host speed measured by a
// calibration run between operations (calib.go). The line before the
// result records the run context: machine, seed, rate, the timings as
// measured and the speed factor, tail percentiles and sample counts,
// and why the workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// rationale records why each workload was chosen.
var rationale = map[string]string{
	"build": "Cold full-config compiles of a seeded program set load every compile stage and par while engine and serve stay idle, and bypass the artifact store.",
	"exec":  "Repeated runs of the paper's E1-E6 programs compiled once in set-up put nearly all timed work in the bytecode engine.",
	"serve": "Open-loop Poisson traffic of warm runs, edit sessions, new programs and errors, in the shares of progen's mixed fleet profile, into one in-process server at a fixed rate loads admission, the caches, single-flight, the artifact store and tier-up.",
}

func main() {
	workload := flag.String("workload", "", "workload to run: build, exec or serve")
	seed := flag.Int64("seed", 1, "seed of the inputs: program sizes, edit script, request mix and arrival times")
	seconds := flag.Float64("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupRepeated runs setup at least n times, and again while the
// set-ups so far took less than budget, up to maxSetups times. It
// releases all but the last state and returns the last state with
// every set-up time in seconds.
func setupRepeated[T any](n int, budget time.Duration, sm *speedMeter, setup func() (T, error), release func(T)) (T, []float64, error) {
	var st T
	var times []float64
	var total time.Duration
	for i := 0; i < n || (total < budget && i < maxSetups); i++ {
		if i > 0 {
			release(st)
		}
		// Each set-up starts from a fresh GC cycle, so the garbage of
		// input generation and earlier set-ups does not land in it.
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		total += dt
		times = append(times, dt.Seconds())
		st = s
		sm.sample()
	}
	return st, times, nil
}

// An untraced run sets its workload up, each time at least minSetups
// times and until setupBudget has been spent, once before and once
// after the measurement; setup_s is the median of all of them. A
// shared host's speed drifts over seconds: set-ups of a few tens of
// milliseconds bunched at one moment read that moment's speed, while
// the measurement averages over the whole run.
const (
	minSetups   = 3
	maxSetups   = 16
	setupBudget = time.Second
)

// measureBetweenSetups sets the workload up, measures it, and, in an
// untraced run, sets it up again. The inputs and their reference
// results are made before it, untimed, so only the set-up of the
// program under test is timed.
func measureBetweenSetups[T any](traced bool, sm *speedMeter, setup func() (T, error), release func(T), measure func(T) (*outcome, error)) (*outcome, []float64, error) {
	n, budget := minSetups, setupBudget
	if traced {
		n, budget = 1, 0
	}
	st, times, err := setupRepeated(n, budget, sm, setup, release)
	if err != nil {
		return nil, nil, err
	}
	o, err := measure(st)
	release(st)
	if err != nil || traced {
		return o, times, err
	}
	st, after, err := setupRepeated(n, budget, sm, setup, release)
	if err != nil {
		return nil, nil, err
	}
	release(st)
	return o, append(times, after...), nil
}

func run(workload string, seed int64, seconds float64, traced bool, outDir string) error {
	if _, ok := rationale[workload]; !ok {
		return fmt.Errorf("unknown workload %q (want build, exec or serve)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	d := time.Duration(seconds * float64(time.Second))
	tr := newTracer()
	sm := newSpeedMeter()
	var (
		o          *outcome
		setupTimes []float64
		err        error
	)
	switch workload {
	case "build":
		var progs []program
		if progs, err = buildPrograms(seed); err != nil {
			return err
		}
		setReferences(progs)
		o, setupTimes, err = measureBetweenSetups(traced, sm,
			func() (*buildState, error) { return setupBuild(progs, seed) },
			func(*buildState) {},
			func(st *buildState) (*outcome, error) {
				if traced {
					return st.measureTraced(d, tr, sm), nil
				}
				return st.measure(d, sm), nil
			})
	case "exec":
		progs := execPrograms(seed)
		setReferences(progs)
		o, setupTimes, err = measureBetweenSetups(traced, sm,
			func() (*execState, error) { return setupExec(progs) },
			func(*execState) {},
			func(st *execState) (*outcome, error) {
				if traced {
					return st.measureTraced(d, tr, sm), nil
				}
				return st.measure(d, sm), nil
			})
	case "serve":
		sched := buildSchedule(seed, seconds)
		o, setupTimes, err = measureBetweenSetups(traced, sm,
			func() (*serveState, error) { return setupServe(sched, traced) },
			(*serveState).close,
			func(st *serveState) (*outcome, error) {
				if traced {
					return st.measureTraced(tr, sm)
				}
				return st.measure(sm)
			})
		if err == nil {
			o.context["rate"] = rate
			o.context["requests"] = len(sched.Arrivals)
			o.context["class_block"] = classCounts()
			o.context["latency_limit_ms"] = latencyLimitMs
		}
	}
	if err != nil {
		return err
	}
	if !traced {
		o.metric("setup_s", median(setupTimes), "s")
		o.context["setup_s_samples"] = setupTimes
	}
	o.scaleTimes(sm)
	if traced {
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		o.context["spans"] = path
	}
	return report(workload, seed, seconds, traced, o)
}

// manifestPath is the benchmark's manifest, relative to the
// repository root the benchmark runs from.
const manifestPath = "BENCHMARK.json"

// checkManifest makes sure a run reports exactly the metrics the
// manifest lists for its kind, end_to_end for an untraced run and
// per_layer for a traced one, each in the listed unit.
func checkManifest(traced bool, metrics map[string]metricValue) error {
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var man struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	for _, e := range want {
		m, ok := metrics[e.Name]
		if !ok {
			return fmt.Errorf("metric %s of %s is not reported", e.Name, manifestPath)
		}
		if m.Unit != e.Unit {
			return fmt.Errorf("metric %s is in %s, %s lists %s", e.Name, m.Unit, manifestPath, e.Unit)
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, %s lists %d", len(metrics), manifestPath, len(want))
	}
	return nil
}

// report prints the context line and then the result line.
func report(workload string, seed int64, seconds float64, traced bool, o *outcome) error {
	if err := checkManifest(traced, o.metrics); err != nil {
		return err
	}
	var empty []string
	for name, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if !traced {
				return fmt.Errorf("end-to-end metric %s has no samples", name)
			}
			// A layer that saw no samples in this run reads 0.
			empty = append(empty, name)
			o.metrics[name] = metricValue{Value: 0, Unit: m.Unit}
		}
	}
	sort.Strings(empty)
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	ctx := map[string]any{
		"workload":   workload,
		"why":        rationale[workload],
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"tails":      o.tails,
		"fail_pct":   100 * float64(o.failed) / float64(max(o.attempted, 1)),
		"mismatches": o.mismatches,
		"no_samples": empty,
	}
	for k, v := range o.context {
		ctx[k] = v
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
