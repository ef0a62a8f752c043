package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/telemetry"
)

// PlanOpt configures a Plan.
type PlanOpt func(*planConfig)

type planConfig struct {
	workers int
	pooled  bool
	reg     *telemetry.Registry
	trace   bool
}

// WithWorkers fans the plan's intra-rank kernels across n goroutines per
// rank. n <= 1 (the default) keeps the serial, allocation-free path.
func WithWorkers(n int) PlanOpt {
	return func(c *planConfig) { c.workers = n }
}

// WithArena sources the plan's scratch buffers from the package slab
// arena, so short-lived plans recycle slabs instead of re-allocating.
func WithArena() PlanOpt {
	return func(c *planConfig) { c.pooled = true }
}

// WithTelemetry feeds per-execution step histograms, the derived
// overlap-efficiency gauge and the downgrade counter into r (metric names
// under "pfft."). A nil registry keeps telemetry off; the execution path
// then pays only a nil check.
func WithTelemetry(r *telemetry.Registry) PlanOpt {
	return func(c *planConfig) { c.reg = r }
}

// WithTrace records a StepEvent timeline of each execution, readable via
// Trace after Forward/Backward. Events reuse the clock reads the
// Breakdown takes anyway, but appending them allocates as the timeline
// grows, so tracing is for timeline capture, not steady-state
// benchmarking.
func WithTrace() PlanOpt {
	return func(c *planConfig) { c.trace = true }
}

// Plan is a create-once / execute-many distributed 3-D FFT for one rank:
// it pre-sizes every communication slot and scratch slab, memoizes the 1-D
// plans and twiddles, and keeps the pipelined loop's request window and
// fault monitor across executions, so the steady state performs zero
// amortized heap allocations. Every rank of the communicator must hold a
// Plan with identical variant/parameters and execute the same sequence of
// Forward/Backward calls (SPMD).
//
// Buffer ownership: the slab passed to Forward/Backward is consumed
// (overwritten) during the call; the returned slice is owned by the Plan
// and is valid only until the next execution. Callers that need the result
// past that point must copy it.
type Plan struct {
	g    layout.Grid
	comm mpi.Comm
	v    Variant
	prm  Params // expanded parameter set actually executed
	flag fft.Flag
	cfg  planConfig

	fwd *RealEngine
	bwd *backEngine // lazily built on first Backward
	rs  runState    // forward pipeline and stages
	bpl Pipeline    // backward pipeline (its stages are bwd)

	trc *Recorder          // shared step recorder, nil unless WithTrace
	met *BreakdownObserver // nil unless WithTelemetry

	last   Breakdown
	closed bool
}

// NewPlan builds a reusable plan for one rank of communicator c with
// geometry g. All parameter expansion, validation, 1-D planning, and
// buffer sizing happens here; Execute-time work is only the transform
// itself.
func NewPlan(c mpi.Comm, g layout.Grid, v Variant, prm Params, flag fft.Flag, opts ...PlanOpt) (*Plan, error) {
	expanded, err := ExpandParams(v, g, prm)
	if err != nil {
		return nil, err
	}
	p := &Plan{g: g, comm: c, v: v, prm: expanded, flag: flag}
	for _, o := range opts {
		o(&p.cfg)
	}
	eopts := p.engineOpts()
	// The engine needs an input slab at construction; hand it a throwaway
	// of the right length — Forward rebinds per call via Reset, and the
	// engine never touches the slab in between.
	init := getSlab(g.InSize())
	p.fwd, err = NewRealEngine(g, c, init, fft.Forward, flag, eopts...)
	putSlab(init)
	if err != nil {
		return nil, err
	}
	p.fwd.PresizeSlots(expanded)
	p.met = NewBreakdownObserver(p.cfg.reg, "pfft")
	if p.cfg.trace {
		p.trc = &Recorder{}
		p.rs.pl.Rec, p.bpl.Rec = p.trc, p.trc
	}
	return p, nil
}

func (p *Plan) engineOpts() []EngineOpt {
	var eopts []EngineOpt
	if p.cfg.workers > 1 {
		eopts = append(eopts, WithEngineWorkers(p.cfg.workers))
	}
	if p.cfg.pooled {
		eopts = append(eopts, WithPooledBuffers())
	}
	return eopts
}

// Grid returns the rank's geometry.
func (p *Plan) Grid() layout.Grid { return p.g }

// Params returns the expanded parameter set the plan executes.
func (p *Plan) Params() Params { return p.prm }

// Variant returns the plan's algorithm variant.
func (p *Plan) Variant() Variant { return p.v }

// OutputFast reports whether the plan's forward output uses the y-z-x
// fast-path layout (§3.5) instead of z-y-x.
func (p *Plan) OutputFast() bool { return OutputFast(p.v, p.g) }

// Breakdown returns the per-step breakdown of the most recent execution.
func (p *Plan) Breakdown() Breakdown { return p.last }

// Forward executes one forward transform. slab is this rank's input
// x-slab in x-y-z layout (consumed); the returned y-slab (layout per
// OutputFast) is owned by the plan and valid until the next execution.
func (p *Plan) Forward(slab []complex128) ([]complex128, Breakdown, error) {
	if p.closed {
		return nil, Breakdown{}, fmt.Errorf("pfft: Forward on closed plan")
	}
	if err := p.fwd.Reset(slab); err != nil {
		return nil, Breakdown{}, err
	}
	p.trc.Reset()
	b, err := runWith(&p.rs, p.fwd, p.v, p.prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	p.last = b
	p.met.Observe(b)
	p.met.ObserveComm(p.prm.Comm, b)
	return p.fwd.Output(), b, nil
}

// Trace returns the StepEvent timeline of the most recent execution, or
// nil when the plan was built without WithTrace. The slice is only valid
// until the next execution.
func (p *Plan) Trace() []StepEvent { return p.trc.Events() }

// Backward executes one inverse transform. slab is this rank's y-slab in
// the plan's forward output layout (consumed); the returned x-slab (x-y-z
// layout) is owned by the plan and valid until the next execution. Like
// Backward3D, the round trip is unnormalized (×Nx·Ny·Nz).
func (p *Plan) Backward(slab []complex128) ([]complex128, Breakdown, error) {
	if p.closed {
		return nil, Breakdown{}, fmt.Errorf("pfft: Backward on closed plan")
	}
	if p.v == TH || p.v == TH0 {
		return nil, Breakdown{}, fmt.Errorf("pfft: backward transform does not support the %v comparison model", p.v)
	}
	if p.bwd == nil {
		e, err := newBackEngine(p.comm, p.g, p.flag, p.engineOpts()...)
		if err != nil {
			return nil, Breakdown{}, err
		}
		e.presizeSlots(p.prm)
		p.bwd = e
	}
	p.trc.Reset()
	b, err := p.bwd.run(&p.bpl, slab, p.v, p.prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	p.last = b
	p.met.Observe(b)
	p.met.ObserveComm(p.prm.Comm, b)
	return p.bwd.in, b, nil
}

// Close releases the plan's worker goroutines and returns arena-backed
// buffers. Result slabs handed out by Forward/Backward stay valid.
func (p *Plan) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.fwd.Close()
	if p.bwd != nil {
		p.bwd.Close()
	}
}
