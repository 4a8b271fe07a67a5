package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testprogs"
)

// TestEngineStepsExact checks that every exec program's step count
// repeats across runs and is the same whether it was compiled at
// Jobs=1 or the default Jobs.
func TestEngineStepsExact(t *testing.T) {
	for _, p := range execPrograms(1) {
		var steps []int64
		for _, jobs := range []int{0, 0, 1} {
			cfg := core.Compiled()
			cfg.Jobs = jobs
			comp, err := core.CompileFiles(p.Files, cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			res := comp.Run()
			if res.Err != nil {
				t.Fatalf("%s: %v", p.Name, res.Err)
			}
			steps = append(steps, res.Stats.Steps)
		}
		if steps[0] != steps[1] || steps[0] != steps[2] {
			t.Errorf("%s: steps %v (default, default, jobs=1)", p.Name, steps)
		}
	}
}

// TestReferenceIsIndependent checks that the oracle runs the
// reference configuration on the switch interpreter and agrees with
// a corpus program's hand-written expectation.
func TestReferenceIsIndependent(t *testing.T) {
	tp := testprogs.Get("fib")
	got := reference([]core.File{{Name: "fib.v", Source: tp.Source}})
	if msg := (expect{Output: tp.Want}).mismatch(got); msg != "" {
		t.Fatal(msg)
	}
}
