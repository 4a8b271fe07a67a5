package core_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/testprogs"
)

// chainPrograms returns progen programs at scales 4, 8 and 16 with
// straight-line call chains, the shape the build benchmark compiles:
// large, inlining- and devirtualization-heavy IR that the small corpus
// does not reach.
func chainPrograms() []testprogs.Prog {
	var progs []testprogs.Prog
	for _, k := range []int{4, 8, 16} {
		p := progen.Scale(k)
		p.Chains, p.ChainDepth = 2*k, 6
		progs = append(progs, testprogs.Prog{
			Name:   fmt.Sprintf("progen_scale%02d_chains", k),
			Source: progen.Generate(p),
		})
	}
	return progs
}

// compiledDigests pins the sha256 of Module.String() under
// core.Compiled() for the corpus and the progen chain programs. A
// change to the optimizer or the analyses that is meant to be
// output-preserving must leave every digest unchanged; a deliberate
// change to the emitted IR updates the table from the test's failure
// output.
var compiledDigests = map[string]string{
	"apply_add_copy":          "40fcdc87b07ee585ca622e44e52eadbd1262606eabaa66c05937f9b6f52ce466",
	"array_of_tuples":         "ee453325d287751402e1fb8b5c79f3ca3d5388b93b82dac8d1464bfa2a8177cc",
	"arrays":                  "6a601db8be3b928bf2160d2dfa72a5559458ef6da5f3228252f2f339368e0abd",
	"bench_closure_churn":     "951d292974eaa77386a1c285435762db4fff8353ecc2149883b79fc91db8a7be",
	"bench_object_churn":      "6a37123a4d613e3cb46009023a628484ca479b879ab778506002f7eabee2c497",
	"classes_b1_b7":           "eb4510880e511aeb2d6b75565e09115c26b564fcf833378a7fbf0de3c401a0c6",
	"components":              "8731e2dd6ed9064a9a6a76e4054973c700cc9c25e5e671d6904fde36c560cba0",
	"enums":                   "4c332da5498954f1a2ad7af3d387954db08a4ef016856b53478168d2e3e0ad85",
	"fib":                     "cc88679e5628ab9b75096a1d94df4feccc90c630ae65dc85e12cca2c167ec55a",
	"firstclass_ambiguity_p1": "c564f37edaca57ed1adc9580c56a23fa8c51b07f7fee9355b470cd0fdd316d9f",
	"generic_list_d":          "cebe3889e0145e0c8a5f5b8790e59a0650797764d846f8b8214fcb66bb3dceb0",
	"globals_ternary":         "c95af8a69b5e0d86aab09db0264b629e51cc848588e8c286f7829358bd08e6e2",
	"hashmap_i":               "922e73b54c9b0ced355322993cd1675eec47c7c7161df3a8dfd31517757707a6",
	"hello":                   "22133f5025f22ca660b5e79a11dd77af0baea184661d0a9a18b31614f888f368",
	"interface_adapter_fg":    "03b4ad5c69bd6fe1bdac10e4488e767f2fcb336ac9f1fdda5877d937b750ede6",
	"matcher_km":              "ba4efb995262e27e3bd8e1b928f7edc9c1fcfcc1f72a4786bdbe64bf6df89ec0",
	"normalization_q":         "26d5be09ad14425e85c636eb60fdab5664359c68b632b2b29971727da53c84ec",
	"number_adt_h":            "1a033c4add0c16f5191c5f700210842e9fdd3066d258b922ee397df40a042b88",
	"operators_b8_b15":        "01accc66954dce4faaf00e94b2acd38f0a7058e5ab271a731e4222b8bd8c4524",
	"override_ambiguity_p":    "c2351c5a6fd45873250144f1247d8dfd11274ea909ada2fccd3361713c449fe7",
	"print1_j":                "3b4f39799a713fdaaf302c16f351e730b5cdf8a9d025f94002ca70e17db0fb97",
	"progen_scale04_chains":   "40fe68ed4469eb8fb96736cb9d5b04b10dbf71492d1f7922ffe218634e1cc732",
	"progen_scale08_chains":   "5e0c1a7d9dff9c1a5f63da6cd7f7b30b117148a0c56b9b478778468a5116378d",
	"progen_scale16_chains":   "ec74eb302fc68ea559ac3e22e4acb3e716afaba076f988ab797c7c620bfcef07",
	"render_footnote5":        "6d26a582a3ae890bde8d9f1a7a186a33d71428addd808e4c6d96f90c1c36ea6f",
	"sort_functional":         "e330f4abd23e2fa4466c55411fcdff93523d106208752b8e2d65e4f4ea0af25f",
	"time_e":                  "e30008cb62ac2532e66163c843182721643df4235ef2428e5cca6bbb1238462a",
	"tuples_c1_c6":            "e2d90705abd10b655fc10208efe6cacd1203c10b37f52fa8789cd3f78bf59cae",
	"variance_o":              "3f1bc605926c8c910a4c0cab2771d3797e2ef801f5fba58007bc482a7b2c030c",
	"variants_n":              "135e3ab5251a544a43ab3c7e62ecfc7191b6fc5472c0bcb357540a6e647ccf1e",
	"void_fields":             "ef4a2d04b4da80f254bfffa6471471e7f3392bd4b62953dee977f738ed0ac085",
}

// TestCompiledOutputDigests proves the compiled IR is byte-identical to
// the pinned output, instruction for instruction.
func TestCompiledOutputDigests(t *testing.T) {
	progs := append(testprogs.All(), chainPrograms()...)
	got := map[string]string{}
	for _, p := range progs {
		comp, err := core.Compile(p.Name+".v", p.Source, core.Compiled())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		got[p.Name] = fmt.Sprintf("%x", sha256.Sum256([]byte(comp.Module.String())))
	}
	var mismatched []string
	for _, p := range progs {
		if got[p.Name] != compiledDigests[p.Name] {
			mismatched = append(mismatched, p.Name)
		}
	}
	if len(got) != len(compiledDigests) || len(mismatched) > 0 {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var table strings.Builder
		for _, n := range names {
			fmt.Fprintf(&table, "\t%q: %q,\n", n, got[n])
		}
		t.Fatalf("compiled output differs from the pinned digests for %v (%d pinned, %d compiled); current table:\n%s",
			mismatched, len(compiledDigests), len(got), table.String())
	}
}
