package main

import (
	"fmt"
	"runtime/metrics"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int
	// mismatches names the first failed operations and why.
	mismatches []string
	metrics    map[string]metricValue
	// tails records each tail metric's percentile and sample count.
	tails   map[string]tail
	context map[string]any
}

const maxReportedMismatches = 20

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metricValue{}, tails: map[string]tail{}, context: map[string]any{}}
}

func (o *outcome) metric(name string, v float64, unit string) {
	o.metrics[name] = metricValue{Value: v, Unit: unit}
}

// tailMetric reports the tail of xs under the tail rule and records
// which percentile it is and over how many samples.
func (o *outcome) tailMetric(name string, xs []float64, unit string) {
	t := tailOf(xs)
	o.metric(name, t.Value, unit)
	o.tails[name] = t
}

// opMetrics reports the latency metrics every workload shares:
// op_p50_ms and op_tail_ms over all timed operations, and
// op_geomean_ms, the geometric mean over the workload's kinds of
// operation (a program, or a request class) of each kind's median.
func (o *outcome) opMetrics(all []float64, byKind map[string][]float64) {
	o.metric("op_p50_ms", median(all), "ms")
	o.tailMetric("op_tail_ms", all, "ms")
	var medians []float64
	kinds := map[string]float64{}
	for k, xs := range byKind {
		m := median(xs)
		medians = append(medians, m)
		kinds[k] = m
	}
	o.metric("op_geomean_ms", geomean(medians), "ms")
	o.context["op_median_ms"] = kinds
}

// scaleTimes rescales every timing to the reference host of
// calibNominal (see calib.go) and records the measured values and the
// speed factor in the run context.
func (o *outcome) scaleTimes(sm *speedMeter) {
	f := sm.factor()
	measured := map[string]float64{}
	for name, m := range o.metrics {
		if m.Unit == "s" || m.Unit == "ms" || m.Unit == "ns" {
			measured[name] = m.Value
			o.metrics[name] = metricValue{Value: m.Value / f, Unit: m.Unit}
		}
	}
	for name, t := range o.tails {
		t.Value /= f
		o.tails[name] = t
	}
	o.context["measured"] = measured
	o.context["speed_factor"] = f
	o.context["calibrations"] = len(sm.times)
	o.context["calibration_ms"] = median(sm.times)
}

// fail counts one failed operation and keeps its reason for the
// report.
func (o *outcome) fail(op, why string) {
	o.failed++
	if len(o.mismatches) < maxReportedMismatches {
		o.mismatches = append(o.mismatches, fmt.Sprintf("%s: %s", op, why))
	}
}

// heapAllocBytes is the cumulative count of bytes the Go runtime has
// allocated on the heap in this process.
func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mb(b uint64) float64 { return float64(b) / 1e6 }
