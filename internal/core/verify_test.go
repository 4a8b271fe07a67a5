package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/testprogs"
)

// TestVerifyIRAllProgramsAllConfigs is the acceptance property of the
// typed verifier: every program in the corpus, and the large progen
// programs with call chains, passes verification after every pipeline
// stage under every configuration. The progen programs reach inlining-
// and devirtualization-heavy IR the corpus does not, so the dense
// register numbering that the optimizer's side tables index by (ir.Reg)
// is checked on large functions too.
func TestVerifyIRAllProgramsAllConfigs(t *testing.T) {
	for _, p := range append(testprogs.All(), chainPrograms()...) {
		for _, cfg := range core.Configs() {
			cfg.VerifyIR = true
			if _, err := core.Compile(p.Name+".v", p.Source, cfg); err != nil {
				t.Errorf("%s [%s]: %v", p.Name, cfg.Name(), err)
			}
		}
	}
}

// TestVerifyIRCatchesCorruptedPipelineOutput corrupts real pipeline
// output and checks the verifier rejects it — the end-to-end form of
// the seeded-mutation property.
func TestVerifyIRCatchesCorruptedPipelineOutput(t *testing.T) {
	p := testprogs.All()[0]
	comp, err := core.Compile(p.Name+".v", p.Source, core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	mod := comp.Module
	if err := mod.Verify(); err != nil {
		t.Fatalf("clean module fails verification: %v", err)
	}
	// Retype the first defined register to a type no opcode result can
	// produce alongside its definition.
	var victim *ir.Reg
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if len(in.Dst) > 0 && in.Op == ir.OpConstInt {
					victim = in.Dst[0]
					break
				}
			}
		}
	}
	if victim == nil {
		t.Skip("no int constant in lowered corpus program")
	}
	victim.Type = mod.Types.Bool()
	if err := mod.Verify(); err == nil {
		t.Fatal("verifier accepted a retyped register")
	} else if !strings.Contains(err.Error(), "bool") {
		t.Fatalf("unexpected verifier error: %v", err)
	}
}

// TestVerifyIREnvForcesOn checks VIRGIL_VERIFY_IR enables verification
// without the config field (the CI hook).
func TestVerifyIREnvForcesOn(t *testing.T) {
	t.Setenv("VIRGIL_VERIFY_IR", "1")
	p := testprogs.All()[0]
	if _, err := core.Compile(p.Name+".v", p.Source, core.Compiled()); err != nil {
		t.Fatalf("compile with forced verification: %v", err)
	}
}

// TestVerifyOpenTypesToleratedInReference checks the reference config
// (polymorphic IR) verifies even though register types are open — the
// verifier must not demand closed types before monomorphization.
func TestVerifyOpenTypesToleratedInReference(t *testing.T) {
	source := `
class Box<T> {
	var x: T;
	new(x) { }
	def get() -> T { return x; }
}
def main() {
	var b = Box<int>.new(41);
	System.puti(b.get() + 1);
}
`
	cfg := core.Reference()
	cfg.VerifyIR = true
	comp, err := core.Compile("box.v", source, cfg)
	if err != nil {
		t.Fatalf("reference compile with verifier: %v", err)
	}
	var open bool
	for _, f := range comp.Module.Funcs {
		if len(f.TypeParams) > 0 {
			open = true
		}
	}
	if !open {
		t.Fatal("expected open functions in the reference module")
	}
}
