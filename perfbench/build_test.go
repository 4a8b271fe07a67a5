package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/testprogs"
)

// TestMain runs the tests from the repository root, where the build
// workload reads examples/virgil.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mustBuildPrograms(t *testing.T, seed int64) []program {
	t.Helper()
	progs, err := buildPrograms(seed)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// TestStagedCompileFidelity checks that the traced stage-by-stage
// compile turns every build program to the module core.CompileFiles
// produces, so the per-layer numbers describe the same compile.
func TestStagedCompileFidelity(t *testing.T) {
	cfg := core.Compiled()
	for _, p := range mustBuildPrograms(t, 1) {
		want, err := core.CompileFiles(p.Files, cfg)
		if err != nil {
			t.Fatalf("%s: core: %v", p.Name, err)
		}
		tr := newTracer()
		mod, _, err := compileStaged(context.Background(), p.Files, cfg, tr, 0, p.Name)
		if err != nil {
			t.Fatalf("%s: staged compile: %v", p.Name, err)
		}
		if got := mod.String(); got != want.Module.String() {
			t.Errorf("%s: staged compile's module differs from core.CompileFiles", p.Name)
		}
		var names []string
		for _, s := range tr.snapshot() {
			names = append(names, s.Name)
		}
		if len(names) != len(stageNames) {
			t.Errorf("%s: stage spans %v, want %v", p.Name, names, stageNames)
		}
	}
}

// TestStagedCompileDiagnostics checks that the staged compile reports a
// program's diagnostics as core does.
func TestStagedCompileDiagnostics(t *testing.T) {
	files := []core.File{{Name: "bad.v", Source: "def main() { frob(undefined_name); }\n"}}
	_, coreErr := core.CompileFiles(files, core.Compiled())
	_, _, err := compileStaged(context.Background(), files, core.Compiled(), nil, 0, "bad")
	if coreErr == nil || err == nil || err.Error() != coreErr.Error() {
		t.Fatalf("staged compile error %v, core error %v", err, coreErr)
	}
}

// TestExactCounts checks that the counts reported as exact — final IR
// size, IR size after each stage and the optimizer counts — repeat
// across runs and are the same at Jobs=1 and the default Jobs.
func TestExactCounts(t *testing.T) {
	progs := mustBuildPrograms(t, 3)
	collect := func(jobs int) []stageCounts {
		cfg := core.Compiled()
		cfg.Jobs = jobs
		var out []stageCounts
		for _, p := range progs {
			_, sc, err := compileStaged(context.Background(), p.Files, cfg, nil, 0, p.Name)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			sc.alloc = nil // allocation is measured, not counted
			out = append(out, *sc)
		}
		return out
	}
	base := collect(0)
	for _, run := range []struct {
		name string
		jobs int
	}{{"second run", 0}, {"jobs=1", 1}} {
		got := collect(run.jobs)
		for i := range base {
			a, b := base[i], got[i]
			if a.opt != b.opt || a.norm != b.norm || len(a.instrs) != len(b.instrs) {
				t.Errorf("%s: %s: counts differ: %+v vs %+v", run.name, progs[i].Name, a, b)
				continue
			}
			for k, n := range a.instrs {
				if b.instrs[k] != n {
					t.Errorf("%s: %s: %s.instrs %d vs %d", run.name, progs[i].Name, k, n, b.instrs[k])
				}
			}
		}
	}
}

// TestInputsFollowSeed checks that the same seed gives the same
// inputs and another seed changes every progen-derived one.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := mustBuildPrograms(t, 1), mustBuildPrograms(t, 1), mustBuildPrograms(t, 2)
	changed := 0
	for i := range a {
		if a[i].Files[0].Source != b[i].Files[0].Source {
			t.Errorf("%s: same seed, different source", a[i].Name)
		}
		if a[i].Files[0].Source != c[i].Files[0].Source {
			changed++
		}
	}
	if changed != 16 {
		t.Errorf("seed 2 changed %d programs, want the 16 progen programs", changed)
	}
	e1, e2 := execPrograms(1), execPrograms(2)
	same := 0
	for i := range e1 {
		if e1[i].Files[0].Source == e2[i].Files[0].Source {
			same++
		}
	}
	if same == len(e1) {
		t.Error("exec programs ignore the seed")
	}
}

// TestBuildSetComposition checks that the build set holds the 16
// progen programs, the whole corpus and every example program.
func TestBuildSetComposition(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("examples", "virgil", "*.v"))
	if len(paths) == 0 {
		t.Fatal("no example programs found")
	}
	if n, want := len(mustBuildPrograms(t, 1)), 16+len(testprogs.All())+len(paths); n != want {
		t.Errorf("build set has %d programs, want %d", n, want)
	}
}

// TestReportsManifestMetrics measures every workload briefly, untraced
// and traced, and checks that each run reports exactly the metrics
// BENCHMARK.json lists for it, with no failed operation.
func TestReportsManifestMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the build set and starts servers")
	}
	check := func(name string, traced bool, o *outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, o.failed, o.attempted, o.mismatches)
		}
		if !traced {
			o.metric("setup_s", 1, "s")
		}
		if err := checkManifest(traced, o.metrics); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	progs := mustBuildPrograms(t, 1)
	setReferences(progs)
	b, err := setupBuild(progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("build", false, b.measure(0, newSpeedMeter()), nil)
	check("build traced", true, b.measureTraced(0, newTracer(), newSpeedMeter()), nil)

	eprogs := execPrograms(1)
	setReferences(eprogs)
	e, err := setupExec(eprogs)
	if err != nil {
		t.Fatal(err)
	}
	check("exec", false, e.measure(0, newSpeedMeter()), nil)
	check("exec traced", true, e.measureTraced(0, newTracer(), newSpeedMeter()), nil)

	for _, traced := range []bool{false, true} {
		s, err := setupServe(buildSchedule(1, 2), traced)
		if err != nil {
			t.Fatal(err)
		}
		var o *outcome
		if traced {
			o, err = s.measureTraced(newTracer(), newSpeedMeter())
		} else {
			o, err = s.measure(newSpeedMeter())
		}
		s.close()
		check(fmt.Sprintf("serve traced=%v", traced), traced, o, err)
	}
}
