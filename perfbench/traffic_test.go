package main

import (
	"bytes"
	"testing"
)

// TestScheduleReproducible checks that the seeded open-loop schedule —
// arrival times, classes, request bodies and expected results — is
// the same for the same seed and differs for another.
func TestScheduleReproducible(t *testing.T) {
	a, b, c := buildSchedule(7, 2), buildSchedule(7, 2), buildSchedule(8, 2)
	if len(a.Reqs) != len(b.Reqs) {
		t.Fatalf("request counts %d vs %d", len(a.Reqs), len(b.Reqs))
	}
	for i := range a.Reqs {
		x, y := a.Reqs[i], b.Reqs[i]
		if x.Class != y.Class || x.Path != y.Path || !bytes.Equal(x.Body, y.Body) || x.Want.mismatch(y.Want) != "" {
			t.Fatalf("request %d differs between runs of one seed", i)
		}
	}
	for j := range a.Arrivals {
		if a.Arrivals[j] != b.Arrivals[j] {
			t.Fatalf("arrival %d differs between runs of one seed", j)
		}
	}
	if a.Arrivals[0] == c.Arrivals[0] {
		t.Error("seed 8 produced seed 7's arrivals")
	}
}

// TestScheduleShape checks the arrivals: their fixed count, time
// order, and exact class counts in every whole block.
func TestScheduleShape(t *testing.T) {
	s := buildSchedule(1, 5)
	if n := loRequests(5); len(s.Arrivals) != n {
		t.Errorf("%d arrivals, want %d", len(s.Arrivals), n)
	}
	want := classCounts()
	blockLen := 0
	for _, c := range classOrder {
		if want[c] == 0 {
			t.Errorf("no %s requests in a block", c)
		}
		blockLen += want[c]
	}
	if len(s.Arrivals) < blockLen {
		t.Fatalf("%d arrivals hold no whole block of %d", len(s.Arrivals), blockLen)
	}
	for i, a := range s.Arrivals {
		if i > 0 && a.At < s.Arrivals[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	for b := 0; b+blockLen <= len(s.Arrivals); b += blockLen {
		got := map[string]int{}
		for _, a := range s.Arrivals[b : b+blockLen] {
			got[s.Reqs[a.Req].Class]++
		}
		for _, c := range classOrder {
			if got[c] != want[c] {
				t.Errorf("block at %d: %d %s requests, want %d", b, got[c], c, want[c])
			}
		}
	}
}

// TestServeAgreesWithReference sends the set-up requests and the
// arrivals of a short schedule and expects every reply to match.
func TestServeAgreesWithReference(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	s, err := setupServe(buildSchedule(1, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	o := newOutcome()
	s.run(o, false, newSpeedMeter())
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.mismatches)
	}
}
