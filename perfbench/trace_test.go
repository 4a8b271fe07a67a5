package main

import (
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren checks that a span's self time
// subtracts the union of its children, clipped to the span, so
// overlapping children count once and grandchildren not at all.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.1", StartNs: 20, EndNs: 25},
		{ID: 6, Parent: 1, Name: "d", StartNs: 45, EndNs: 50}, // inside b
	}
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d (%s): self %v, want %v", id, spans[id-1].Name, got[id], w)
		}
	}
}

func TestTracerRecordsParentsBeforeChildren(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	id := tr.open("compile", 0, "k", t0)
	tr.add("parser", id, "k", t0, t0.Add(time.Millisecond))
	tr.close(id, t0.Add(3*time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans)[id]; self != 2*time.Millisecond {
		t.Errorf("compile self time = %v, want 2ms", self)
	}
}
