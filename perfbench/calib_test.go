package main

import "testing"

// TestCalibrationAllocatesNothing checks that a calibration does not
// allocate, so the program's heap and collector cannot change how
// long it takes.
func TestCalibrationAllocatesNothing(t *testing.T) {
	w := newCalibWork()
	if n := testing.AllocsPerRun(5, func() { w.run() }); n != 0 {
		t.Errorf("calibration allocates %v times per run", n)
	}
}

// TestScaleTimes checks that only timings are rescaled, tails
// included, and that the measured values stay in the context.
func TestScaleTimes(t *testing.T) {
	sm := &speedMeter{times: []float64{ms(calibNominal), 2 * ms(calibNominal), 9 * ms(calibNominal)}}
	o := newOutcome()
	o.metric("op_p50_ms", 4, "ms")
	o.metric("setup_s", 1, "s")
	o.metric("code_instrs", 10, "count")
	o.metric("op_tail_ms", 8, "ms")
	o.tails["op_tail_ms"] = tail{Pct: 95, Value: 8, Samples: 200, Beyond: 10}
	o.scaleTimes(sm)
	if o.metrics["op_p50_ms"].Value != 2 || o.metrics["setup_s"].Value != 0.5 || o.metrics["code_instrs"].Value != 10 {
		t.Errorf("scaled metrics %v", o.metrics)
	}
	if o.metrics["op_tail_ms"].Value != 4 || o.tails["op_tail_ms"].Value != 4 {
		t.Errorf("scaled tail %v", o.tails["op_tail_ms"])
	}
	if m := o.context["measured"].(map[string]float64); m["op_p50_ms"] != 4 {
		t.Errorf("measured %v", m)
	}
	if f := o.context["speed_factor"].(float64); f != 2 {
		t.Errorf("speed factor %v", f)
	}
}
