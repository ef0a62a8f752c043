package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"offt"
)

const (
	libN     = 128
	libRanks = 2 // ranks equal cores on the reference 2-CPU host
)

func slabPlan(n, ranks int, extra ...offt.Option) (*offt.Plan, error) {
	opts := append([]offt.Option{
		offt.WithGrid(n, n, n), offt.WithRanks(ranks),
		offt.WithDecomp(offt.Slab), offt.WithVariant(offt.NEW),
	}, extra...)
	return offt.NewPlan(opts...)
}

// runLib is lib-slab-128: an in-process offt.Plan round trip (ForwardInto
// then BackwardInto) on 128³ over two mem-engine ranks. No HTTP: the FFT
// kernels, transpose, pack/unpack and scatter/gather do most of the work.
func runLib(r *run) error {
	r.noteShape(libN, libRanks)
	c := newCube(libN, r.seed, 0)
	dst := make([]complex128, c.elements)

	var plan *offt.Plan
	closePlan := func() {
		plan.Close()
		plan = nil
		runtime.GC()
	}
	if _, err := r.setups(func() (func(), error) {
		var err error
		if plan, err = slabPlan(libN, libRanks); err != nil {
			return nil, err
		}
		if err = plan.ForwardInto(dst, c.x); err == nil {
			err = c.checkForward(dst)
		}
		if !r.check(err) {
			closePlan()
			return nil, err
		}
		return closePlan, nil
	}); err != nil {
		return err
	}

	err := r.untracedThenTraced(func(d time.Duration, traced bool) (phase, error) {
		if !traced {
			return roundTrips(r, c, plan, dst, d)
		}
		// The traced half runs its own plan with telemetry attached, so
		// transport counters can be read; the untraced plan is closed
		// first to keep one 128³ world alive at a time.
		closePlan()
		p, err := probePlan(r, c, libRanks, d, 0)
		// The stage times are per transform; a round trip is two.
		stages := r.layer["offt.scatter_ms"] + r.layer["offt.dispatch_ms"] + r.layer["offt.gather_ms"]
		r.set("budget.coverage", 2*stages/mean(p.latMs), len(p.latMs))
		return p, err
	})
	if plan != nil {
		plan.Close()
	}
	rss, rerr := peakRSSMiB("self")
	if rerr != nil {
		return rerr
	}
	r.e2e["peak_rss_mib"] = []float64{rss}
	if err != nil || !r.trace {
		return failIfWrong(r, err)
	}
	if err := probeSerial(r, c); err != nil {
		return err
	}
	if err := probeSlabLayers(r, libN, libRanks); err != nil {
		return err
	}
	return failIfWrong(r, nil)
}

func failIfWrong(r *run, err error) error {
	if err == nil && r.failed > 0 {
		return errWrongOutput
	}
	return err
}

// roundTrips is the untraced closed loop: one client runs forward then
// backward transforms of the seeded cube, checking every output. One
// operation is the round trip; its latency is the two calls' time, without
// the checks.
func roundTrips(r *run, c cube, plan *offt.Plan, dst []complex128, d time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		err := plan.ForwardInto(dst, c.x)
		fwd := time.Since(t0)
		if err != nil {
			r.check(err)
			return p, err
		}
		ok := r.check(c.checkForward(dst))

		t0 = time.Now()
		err = plan.BackwardInto(dst, c.spec)
		bwd := time.Since(t0)
		if err != nil {
			r.check(err)
			return p, err
		}
		if r.check(c.checkBackward(dst)) && ok {
			p.add(fwd + bwd)
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// probePlan runs traced round trips on a fresh plan with telemetry attached
// and records the offt.*, pfft.* and mem-engine mpi.* layer metrics. It runs
// for d, or for exactly reps round trips when reps > 0.
func probePlan(r *run, c cube, ranks int, d time.Duration, reps int) (phase, error) {
	var p phase
	reg := offt.NewTelemetry()
	plan, err := slabPlan(c.n, ranks, offt.WithTelemetry(reg))
	if err != nil {
		return p, err
	}
	defer plan.Close()
	dst := make([]complex128, c.elements)
	// The first round trip sizes buffers; the next two measure what the
	// plain Into calls allocate in steady state.
	var ms0, ms1 runtime.MemStats
	const allocTrips = 3
	for i := 0; i < allocTrips; i++ {
		if i == 1 {
			runtime.ReadMemStats(&ms0)
		}
		if err := plan.ForwardInto(dst, c.x); err != nil {
			return p, err
		}
		if err := plan.BackwardInto(dst, c.spec); err != nil {
			return p, err
		}
	}
	runtime.ReadMemStats(&ms1)
	r.set("offt.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(2*(allocTrips-1)), 2*(allocTrips-1))

	var (
		fwd, bwd                  phase
		scatter, dispatch, gather float64
		join                      float64
		steps                     offt.Breakdown
		downgrades                int64
		ctx                       = context.Background()
		sent0, retx0, dedup0      = transportCounters(reg)
		transforms                int
	)
	start := time.Now()
	for i := 0; (reps > 0 && i < reps) || (reps == 0 && time.Since(start) < d); i++ {
		var trip time.Duration
		ok := true
		for _, forward := range []bool{true, false} {
			var st offt.ExecStats
			t0 := time.Now()
			if forward {
				st, err = plan.ForwardIntoCtx(ctx, dst, c.x)
				fwd.add(time.Since(t0))
			} else {
				st, err = plan.BackwardIntoCtx(ctx, dst, c.spec)
				bwd.add(time.Since(t0))
			}
			trip += time.Since(t0)
			if err != nil {
				r.check(err)
				return p, err
			}
			// PerRank is read before the check so nothing else runs on
			// the plan in between.
			var slowest int64
			for _, b := range plan.PerRank() {
				slowest = max(slowest, b.Total)
			}
			if forward {
				ok = r.check(c.checkForward(dst))
			} else {
				ok = r.check(c.checkBackward(dst)) && ok
			}
			transforms++
			scatter += float64(st.ScatterNs) / 1e6
			dispatch += float64(st.DispatchNs) / 1e6
			gather += float64(st.GatherNs) / 1e6
			join += float64(st.DispatchNs-slowest) / 1e6
			steps.Add(st.Breakdown)
			downgrades += st.Downgrades
		}
		if ok {
			p.add(trip)
		}
	}
	p.wall = time.Since(start)
	sent1, retx1, dedup1 := transportCounters(reg)

	t := float64(transforms)
	r.set("offt.scatter_ms", scatter/t, transforms)
	r.set("offt.dispatch_ms", dispatch/t, transforms)
	r.set("offt.gather_ms", gather/t, transforms)
	r.set("offt.join_ms", join/t, transforms)
	r.set("offt.forward_ms_p50", quantile(fwd.latMs, 0.5), len(fwd.latMs))
	r.set("offt.backward_ms_p50", quantile(bwd.latMs, 0.5), len(bwd.latMs))
	r.set("offt.downgrades", float64(downgrades), transforms)
	recordSteps(r, "pfft", steps, transforms)
	r.set("mpi.msgs_per_op", float64(sent1-sent0)/t, transforms)
	r.set("mpi.bytes_per_op", slabExchangeBytes(c.n, ranks), transforms)
	r.set("mpi.retransmits", float64(retx1-retx0), transforms)
	r.set("mpi.dedups", float64(dedup1-dedup0), transforms)
	return p, nil
}

func transportCounters(reg *offt.Telemetry) (sent, retransmits, dedups int64) {
	s := reg.Snapshot().Counters
	return s["mem.transport.sent"], s["mem.transport.retransmits"], s["mem.transport.dedups"]
}

// recordSteps records the per-step means of a summed rank-averaged
// breakdown over n transforms under prefix (pfft or pencil).
func recordSteps(r *run, prefix string, b offt.Breakdown, n int) {
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	r.set(prefix+".fftz_ms", per(b.FFTz), n)
	r.set(prefix+".transpose_ms", per(b.Transpose), n)
	r.set(prefix+".ffty_ms", per(b.FFTy), n)
	r.set(prefix+".pack_ms", per(b.Pack), n)
	r.set(prefix+".unpack_ms", per(b.Unpack), n)
	r.set(prefix+".fftx_ms", per(b.FFTx), n)
	r.set(prefix+".ialltoall_ms", per(b.Ialltoall), n)
	r.set(prefix+".wait_ms", per(b.Wait), n)
	r.set(prefix+".test_ms", per(b.Test), n)
	r.set(prefix+".overlap_efficiency", b.OverlapEfficiency(), n)
}

// probeSerial times a p=1 plan on the same cube: the serial baseline the
// parallel plan is compared with.
func probeSerial(r *run, c cube) error {
	const reps = 5
	plan, err := slabPlan(c.n, 1)
	if err != nil {
		return err
	}
	defer plan.Close()
	dst := make([]complex128, c.elements)
	var lat []float64
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		if err := plan.ForwardInto(dst, c.x); err != nil {
			return err
		}
		if i > 0 { // the first execution sizes buffers
			lat = append(lat, float64(time.Since(t0))/1e6)
		}
		if err := c.checkForward(dst); err != nil {
			return fmt.Errorf("p=1 baseline: %w", err)
		}
	}
	r.set("offt.p1_ms_p50", quantile(lat, 0.5), reps)
	return nil
}
