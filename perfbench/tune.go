package main

import (
	"fmt"
	"math"
	"time"

	"offt"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/pencil"
	"offt/internal/tuner"
)

// The tune-sim problem is fixed: one slab tune and one pencil tune on the
// UMD-cluster model, as in the paper's tuning-cost study. The tuner and the
// simulator are deterministic, so the seed does not change the inputs.
const (
	tuneMachine = "umd-cluster"
	tuneRanks   = 16
	tuneSlabN   = 256
	tunePencilN = 128
	tuneBudget  = 60
)

// tuneOp is the outcome of one tune-sim operation.
type tuneOp struct {
	slab, pencil       offt.TuneOutcome
	slabPrm, pencilPrm offt.Params
	wall               time.Duration
}

func tuneOnce() (tuneOp, error) {
	var op tuneOp
	t0 := time.Now()
	var err error
	op.slabPrm, op.slab, err = offt.TuneNEW(tuneMachine, tuneRanks, tuneSlabN, tuneBudget)
	if err != nil {
		return op, err
	}
	m, err := machine.ByName(tuneMachine)
	if err != nil {
		return op, err
	}
	op.pencilPrm, op.pencil, err = tuner.TunePencilNEW(m, tuneRanks, tunePencilN, tuneBudget)
	op.wall = time.Since(t0)
	return op, err
}

// tuneOracle holds the model prices of the default points, which every
// tuned point must match or beat, and the first operation's best times,
// which every repeat must reproduce exactly.
type tuneOracle struct {
	m                  machine.Machine
	slabDef, pencilDef int64
	first              *tuneOp
}

func newTuneOracle() (*tuneOracle, error) {
	m, err := machine.ByName(tuneMachine)
	if err != nil {
		return nil, err
	}
	def, err := offt.DefaultParams(tuneSlabN, tuneSlabN, tuneSlabN, tuneRanks)
	if err != nil {
		return nil, err
	}
	o := &tuneOracle{m: m}
	if o.slabDef, err = priceSlab(m, def); err != nil {
		return nil, err
	}
	pr, pc, err := pencil.DefaultProcGrid(tunePencilN, tunePencilN, tunePencilN, tuneRanks)
	if err != nil {
		return nil, err
	}
	g, err := pencil.NewGrid2D(tunePencilN, tunePencilN, tunePencilN, pr, pc, 0)
	if err != nil {
		return nil, err
	}
	o.pencilDef, err = pencil.SimulateOverlappedGrid(m, pr, pc, tunePencilN, tunePencilN, tunePencilN, pencil.DefaultParams2D(g))
	return o, err
}

// priceSlab is the tuner's slab objective: the slowest rank's time outside
// FFTz and Transpose, or an error for an infeasible point.
func priceSlab(m machine.Machine, prm offt.Params) (int64, error) {
	g, err := layout.NewGrid(tuneSlabN, tuneSlabN, tuneSlabN, tuneRanks, 0)
	if err != nil {
		return 0, err
	}
	if err := prm.Validate(g); err != nil {
		return 0, err
	}
	res, err := model.SimulateCube(m, tuneRanks, tuneSlabN, model.Spec{Variant: offt.NEW, Params: prm})
	return res.MaxTuned, err
}

// pricePencil is the tuner's pencil objective for a public parameter set
// carrying its process-grid row count.
func pricePencil(m machine.Machine, prm offt.Params) (int64, error) {
	if prm.Pr <= 0 || tuneRanks%prm.Pr != 0 {
		return 0, fmt.Errorf("pencil row count %d does not divide %d ranks", prm.Pr, tuneRanks)
	}
	pr, pc := prm.Pr, tuneRanks/prm.Pr
	g, err := pencil.NewGrid2D(tunePencilN, tunePencilN, tunePencilN, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	p2 := pencil.FromParams(prm, g)
	if err := p2.Validate(g); err != nil {
		return 0, err
	}
	return pencil.SimulateOverlappedGrid(m, pr, pc, tunePencilN, tunePencilN, tunePencilN, p2)
}

// check verifies one operation: both tuned points are feasible, the model
// prices each no slower than its default point and at the time the tuner
// reported, and the best times repeat the first operation's exactly.
func (o *tuneOracle) check(op tuneOp) error {
	slab, err := priceSlab(o.m, op.slabPrm)
	if err != nil {
		return fmt.Errorf("%w: tuned slab point infeasible: %v", errWrongOutput, err)
	}
	pen, err := pricePencil(o.m, op.pencilPrm)
	if err != nil {
		return fmt.Errorf("%w: tuned pencil point infeasible: %v", errWrongOutput, err)
	}
	switch {
	case slab > o.slabDef:
		return fmt.Errorf("%w: tuned slab point prices %d ns, default %d ns", errWrongOutput, slab, o.slabDef)
	case pen > o.pencilDef:
		return fmt.Errorf("%w: tuned pencil point prices %d ns, default %d ns", errWrongOutput, pen, o.pencilDef)
	case slab != op.slab.BestTime() || pen != op.pencil.BestTime():
		return fmt.Errorf("%w: tuned points price %d/%d ns, tuner reported %d/%d ns",
			errWrongOutput, slab, pen, op.slab.BestTime(), op.pencil.BestTime())
	}
	if o.first == nil {
		o.first = &op
		return nil
	}
	if op.slab.BestTime() != o.first.slab.BestTime() || op.pencil.BestTime() != o.first.pencil.BestTime() {
		return fmt.Errorf("%w: repeat tune found %d/%d ns, first found %d/%d ns", errWrongOutput,
			op.slab.BestTime(), op.pencil.BestTime(), o.first.slab.BestTime(), o.first.pencil.BestTime())
	}
	return nil
}

// runTune is tune-sim: each operation is one TuneNEW slab tune and one
// TunePencilNEW pencil tune on the UMD-cluster model. Set-up is resolving
// the machine model and pricing the default points the oracle compares
// against.
func runTune(r *run) error {
	var oracle *tuneOracle
	if _, err := r.setups(func() (func(), error) {
		var err error
		oracle, err = newTuneOracle()
		return nil, err
	}); err != nil {
		return err
	}

	var last tuneOp
	var tunerWall, opMean float64
	err := r.untracedThenTraced(func(d time.Duration, traced bool) (phase, error) {
		var p phase
		start := time.Now()
		for time.Since(start) < d {
			op, err := tuneOnce()
			if err != nil {
				r.check(err)
				return p, err
			}
			p.add(op.wall)
			if r.check(oracle.check(op)) && traced {
				last = op
				tunerWall += float64(op.slab.WallNs+op.pencil.WallNs) / 1e6
			}
		}
		p.wall = time.Since(start)
		if traced && last.wall > 0 {
			opMean = mean(p.latMs)
			r.set("budget.coverage", tunerWall/float64(len(p.latMs))/opMean, len(p.latMs))
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mib"] = []float64{rss}
	r.note("tune_s=%.4f (median wall time of one operation, steal-scaled like latency_p50_ms)",
		quantile(r.e2e["latency_ms"], 0.5)*(1-r.loopSteal)/1e3)
	if !r.trace || last.wall == 0 {
		return failIfWrong(r, nil)
	}
	recordTuner(r, last, oracle.m, opMean)
	return failIfWrong(r, nil)
}

// recordTuner records tuner.* from the last operation's outcomes (the
// tuner is deterministic, so every operation reports the same search) and
// re-times the model on the configurations that search visited; model.share
// divides that pricing time by opMs, the mean operation time.
func recordTuner(r *run, op tuneOp, m machine.Machine, opMs float64) {
	s, p := op.slab.Search, op.pencil.Search
	sugg := s.Suggestions + p.Suggestions
	r.set("tuner.evals", float64(s.Evals+p.Evals), 1)
	r.set("tuner.suggestions", float64(sugg), 1)
	r.set("tuner.cache_hit_frac", float64(s.CacheHits+p.CacheHits)/float64(sugg), sugg)
	r.set("tuner.infeasible", float64(s.Infeasible+p.Infeasible), 1)
	r.set("tuner.virtual_s", float64(op.slab.VirtualNs+op.pencil.VirtualNs)/1e9, 1)
	r.set("tuner.best_virtual_ms.slab", float64(op.slab.BestTime())/1e6, 1)
	r.set("tuner.best_virtual_ms.pencil", float64(op.pencil.BestTime())/1e6, 1)

	var slabMs []float64
	var pricing float64
	for _, smp := range s.History {
		if math.IsInf(smp.Cost, 1) {
			continue
		}
		prm := tuner.DecodeParams(smp.Cfg)
		t0 := time.Now()
		if _, err := priceSlab(m, prm); err == nil {
			ms := float64(time.Since(t0)) / 1e6
			slabMs = append(slabMs, ms)
			pricing += ms
		}
	}
	for _, smp := range p.History {
		if math.IsInf(smp.Cost, 1) {
			continue
		}
		t0 := time.Now()
		if _, err := pricePencil(m, tuner.DecodePencilGridParams(smp.Cfg)); err == nil {
			pricing += float64(time.Since(t0)) / 1e6
		}
	}
	r.set("model.simulate_ms_p50", quantile(slabMs, 0.5), len(slabMs))
	r.set("model.share", pricing/opMs, len(s.History)+len(p.History))
}
