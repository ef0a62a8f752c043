package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names it must print and their units, so the two cannot drift apart.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read metric list: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from the recorded samples. Wall
// times are scaled by (1 − s), s being the host's CPU steal share over the
// interval they were measured in, so that runs on a contended host compare
// with runs on a quiet one: CPU time the hypervisor gave to other guests is
// taken out of the figure. peak_rss_mib is not a time and is not scaled.
func (r *run) endToEnd() (map[string]float64, map[string]int) {
	lat := r.e2e["latency_ms"]
	loop, setup := 1-r.loopSteal, 1-r.setupSteal
	v := map[string]float64{
		"setup_s":        quantile(r.e2e["setup_s"], 0.5) * setup,
		"ops_per_s":      quantile(r.e2e["ops_per_s"], 0.5) / loop,
		"latency_p50_ms": quantile(lat, 0.50) * loop,
		"latency_p90_ms": quantile(lat, 0.90) * loop,
		"peak_rss_mib":   quantile(r.e2e["peak_rss_mib"], 0.5),
	}
	n := map[string]int{
		"setup_s":        len(r.e2e["setup_s"]),
		"ops_per_s":      len(lat),
		"latency_p50_ms": len(lat),
		"latency_p90_ms": len(lat),
		"peak_rss_mib":   1,
	}
	return v, n
}

// result assembles the final record: every end-to-end metric of the spec
// on an untraced run, every per-layer metric on a traced one. A per-layer
// metric the workload does not measure reads 0 and is marked as such in
// the table.
func (r *run) result(s spec) (result, error) {
	res := result{
		Correct:   r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.note("fail_frac=%g (%d of %d operations failed or were wrong)", frac, r.failed, r.attempted)

	// A value over no samples (every operation of a phase failed) is
	// NaN or Inf; it is printed as 0 since JSON has no encoding for it.
	finite := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	e2e, n := r.endToEnd()
	if lat := r.e2e["latency_ms"]; len(lat) > 0 {
		r.note("unscaled: setup_s=%.6g ops_per_s=%.6g latency %s", quantile(r.e2e["setup_s"], 0.5),
			quantile(r.e2e["ops_per_s"], 0.5), latencySummary(lat))
		r.note("timings below are scaled by (1 - steal): loop steal %.2f%%, set-up steal %.2f%%",
			100*r.loopSteal, 100*r.setupSteal)
	}
	if !r.trace {
		for _, m := range s.EndToEnd {
			v, ok := e2e[m.Name]
			if !ok {
				return res, fmt.Errorf("end-to-end metric %q is not measured", m.Name)
			}
			v = finite(v)
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			r.note("%-28s %14.6g %-8s n=%d", m.Name, v, m.Unit, n[m.Name])
		}
		return res, nil
	}
	known := map[string]bool{}
	for _, m := range s.PerLayer {
		known[m.Name] = true
		v, ok := r.layer[m.Name]
		v = finite(v)
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		if ok {
			r.note("%-28s %14.6g %-8s n=%d", m.Name, v, m.Unit, r.count[m.Name])
		} else {
			r.note("%-28s %14s %-8s (not measured on %s)", m.Name, "-", m.Unit, r.workload)
		}
	}
	for name := range r.layer {
		if !known[name] {
			return res, fmt.Errorf("per-layer metric %q is measured but not listed in BENCHMARK.json", name)
		}
	}
	return res, nil
}
