package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStatsTimingsNameEveryStage checks that the `virgil stats`
// timings line names every core.Timings stage that a compile under the
// stats configuration actually times, so a stage added to Timings
// cannot silently drop out of the report.
func TestStatsTimingsNameEveryStage(t *testing.T) {
	source := `
class Box<T> {
	var x: T;
	new(x) { }
	def get() -> T { return x; }
}
def pair(a: int) -> (int, int) { return (a, a + 1); }
def main() {
	var b = Box<int>.new(40);
	var p = pair(b.get());
	System.puti(p.0 + p.1);
	System.ln();
}
`
	path := write(t, "stages.v", source)
	code, out, stderr := exec("stats", path)
	if code != exitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "timings:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no timings line in:\n%s", out)
	}

	comp, err := core.Compile(path, source, core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	tv := reflect.ValueOf(comp.Timings)
	durType := reflect.TypeOf(time.Duration(0))
	stages := 0
	for i := 0; i < tv.NumField(); i++ {
		field := tv.Type().Field(i)
		if field.Type != durType || tv.Field(i).Interface().(time.Duration) == 0 {
			continue
		}
		stages++
		name := strings.ToLower(field.Name)
		if !strings.Contains(line, " "+name+" ") {
			t.Errorf("timings line does not name stage %q (core.Timings.%s): %s", name, field.Name, line)
		}
	}
	if stages < 8 {
		t.Errorf("only %d non-zero stages timed; the full pipeline should time parse through analysis and total", stages)
	}
}
