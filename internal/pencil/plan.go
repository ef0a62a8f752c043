package pencil

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/mpi"
	"offt/internal/pfft"
)

// Plan is the create-once / execute-many pencil transform for one rank —
// the 2-D counterpart of pfft.Plan. Construction clones the 1-D FFT plans
// and sizes every communication slot and scratch buffer; Forward and
// Backward then run allocation-free in steady state.
//
// Both forward all-to-all phases run on pfft.Pipeline, the driver under
// every overlapped transform (pack tile i, wait tile i−W, post tile i,
// unpack tile i−W), so they share its downgrade machinery: a tile wait
// missing its soft deadline, or persistent transport retransmission
// pressure, degrades the remainder of that phase to the blocking per-tile
// path, which issues exactly one all-to-all per tile in tile order.
//
// The Baseline and NEW0 variants run the same pipeline with a single
// whole-extent tile per phase and no Test calls — one big exchange per
// phase, like Forward3D.
type Plan struct {
	c   mpi.Comm
	g   Grid2D
	prm Params2D

	fz, fy, fx *fft.Plan // forward 1-D plans
	bz, by, bx *fft.Plan // backward 1-D plans (lazy)

	slab []complex128 // Forward's input z-pencil, bound for one execution
	mid  []complex128 // phase-1 pencil [xc][zc][Ny], y contiguous
	out  []complex128 // output x-pencil [y2c][zc][Nx], x contiguous
	in   []complex128 // backward result z-pencil [xc][yc][Nz] (lazy)

	sendCounts, recvCounts []int
	phA, phB               phase        // forward exchange phases
	bsend, brecv           []complex128 // backward whole-phase buffers (lazy)

	pl   pfft.Pipeline // Rec is the step recorder (EnableTrace)
	flag fft.Flag
	last pfft.Breakdown
}

// NewPlan builds a reusable pencil plan for this rank. Supported variants:
// NEW (overlapped pipeline in both exchange phases, tiling from prm),
// Baseline and NEW0 (blocking: one whole-extent tile per phase). A zero
// Params2D means DefaultParams2D.
func NewPlan(c mpi.Comm, g Grid2D, v pfft.Variant, prm Params2D, flag fft.Flag) (*Plan, error) {
	if c.Size() != g.P() || c.Rank() != g.Rank {
		return nil, fmt.Errorf("pencil: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P())
	}
	if prm == (Params2D{}) {
		prm = DefaultParams2D(g)
	}
	switch v {
	case pfft.NEW:
		// keep prm as given
	case pfft.Baseline, pfft.NEW0:
		// Blocking variants override the tiling but keep the caller's
		// exchange schedule: blocking is just post+wait in every engine.
		prm = blockingParams(g, prm.Comm)
	default:
		return nil, fmt.Errorf("pencil: variant %v is not supported by the pencil decomposition (use baseline, new, or new0)", v)
	}
	if err := prm.Validate(g); err != nil {
		return nil, err
	}
	p := &Plan{
		c: c, g: g, prm: prm, flag: flag,
		fz:  fft.Plan1DCached(g.Nz, fft.Forward, flag).Clone(),
		fy:  fft.Plan1DCached(g.Ny, fft.Forward, flag).Clone(),
		fx:  fft.Plan1DCached(g.Nx, fft.Forward, flag).Clone(),
		mid: make([]complex128, g.MidSize()),
		out: make([]complex128, g.OutSize()),

		sendCounts: make([]int, g.P()),
		recvCounts: make([]int, g.P()),
	}
	xs := phases(g, prm)
	p.phA = newPhase(p, xs[0])
	p.phB = newPhase(p, xs[1])
	return p, nil
}

// Grid returns the plan's pencil geometry.
func (p *Plan) Grid() Grid2D { return p.g }

// Params returns the effective overlap parameters.
func (p *Plan) Params() Params2D { return p.prm }

// Breakdown returns the per-step breakdown of the most recent execution.
func (p *Plan) Breakdown() pfft.Breakdown { return p.last }

// EnableTrace turns on step-event recording: every subsequent execution
// rebuilds the timeline returned by Trace. Events reuse the clock reads
// the Breakdown takes anyway, but appending them allocates as the
// timeline grows — use it for timeline capture, not steady-state
// benchmarking.
func (p *Plan) EnableTrace() {
	if p.pl.Rec == nil {
		p.pl.Rec = &pfft.Recorder{}
	}
}

// Trace reports the step-event timeline of the most recent execution
// (nil unless EnableTrace was called). The slice aliases plan-owned
// storage and is valid until the next execution.
func (p *Plan) Trace() []pfft.StepEvent { return p.pl.Rec.Events() }

// Close releases nothing today but completes the create/execute/close
// lifecycle shared with pfft.Plan.
func (p *Plan) Close() {}

// Forward executes one forward transform. slab is this rank's input
// z-pencil in x-y-z layout (length InSize(), consumed); the returned
// x-pencil in y-z-x layout is plan-owned and valid until the next
// execution.
func (p *Plan) Forward(slab []complex128) ([]complex128, pfft.Breakdown, error) {
	if len(slab) != p.g.InSize() {
		return nil, pfft.Breakdown{}, fmt.Errorf("pencil: slab length %d, want %d", len(slab), p.g.InSize())
	}
	c := p.c
	p.last = pfft.Breakdown{}
	start := c.Now()
	// Re-select the tuned exchange schedule every run: the communicator may
	// be shared with plans tuned to a different schedule.
	mpi.SetExchange(c, mpi.Exchange{Alg: p.prm.Comm})
	p.pl.Rec.Reset()
	p.slab = slab
	p.pl.Run(c, &p.phA, p.phA.x.tiles(), p.phA.x.w)
	// Phase-B tiles number after phase-A tiles so post/wait pairs stay
	// unique plan-wide.
	p.pl.Rec.SetTileBase(p.phA.x.tiles())
	p.pl.Run(c, &p.phB, p.phB.x.tiles(), p.phB.x.w)
	p.slab = nil
	p.last.Total = c.Now() - start
	return p.out, p.last, nil
}

// phase is one forward exchange phase of a Plan, run as pfft.Stages.
// Phase A: FFTz and pack in front, unpack and FFTy behind, over a range
// of local x. Phase B: pack in front, unpack and FFTx behind, over a
// range of local z.
type phase struct {
	p          *Plan
	x          exchange
	send, recv [][]complex128 // per-slot buffers, sized for the largest tile
}

func newPhase(p *Plan, x exchange) phase {
	ns, nr := x.lens(0)
	ph := phase{p: p, x: x, send: make([][]complex128, x.w+1), recv: make([][]complex128, x.w+1)}
	for s := range ph.send {
		ph.send[s] = make([]complex128, ns)
		ph.recv[s] = make([]complex128, nr)
	}
	return ph
}

func (ph *phase) Front(i, slot int, win []mpi.Request) {
	p, g, c := ph.p, ph.p.g, ph.p.c
	rec, b := p.pl.Rec, &p.last
	xc, yc, zc := g.XC(), g.YC(), g.ZC()
	lo, hi := ph.x.bounds(i)
	buf := ph.send[slot]
	off := 0
	if !ph.x.colB {
		t := c.Now()
		p.fz.Batch(p.slab[lo*yc*g.Nz:], (hi-lo)*yc, g.Nz)
		pfft.EndStep(c, rec, "FFTz", i, t, &b.FFTz)
		p.poll(win)
		t = c.Now()
		for cj := 0; cj < g.PC; cj++ {
			zs, zcnt := g.ZD.Start(cj), g.ZD.Count(cj)
			for lx := lo; lx < hi; lx++ {
				for ly := 0; ly < yc; ly++ {
					row := p.slab[(lx*yc+ly)*g.Nz:]
					copy(buf[off:off+zcnt], row[zs:zs+zcnt])
					off += zcnt
				}
			}
		}
		pfft.EndStep(c, rec, "Pack", i, t, &b.Pack)
	} else {
		t := c.Now()
		for ri := 0; ri < g.PR; ri++ {
			ys, ycnt := g.YD2.Start(ri), g.YD2.Count(ri)
			for lx := 0; lx < xc; lx++ {
				for lz := lo; lz < hi; lz++ {
					row := p.mid[(lx*zc+lz)*g.Ny:]
					copy(buf[off:off+ycnt], row[ys:ys+ycnt])
					off += ycnt
				}
			}
		}
		pfft.EndStep(c, rec, "Pack", i, t, &b.Pack)
	}
	p.poll(win)
}

func (ph *phase) Post(i, slot int) mpi.Request {
	p := ph.p
	ns, nr := ph.x.lens(i)
	ph.x.counts(i, p.sendCounts, p.recvCounts)
	return p.c.Ialltoallv(ph.send[slot][:ns], p.sendCounts, ph.recv[slot][:nr], p.recvCounts)
}

func (ph *phase) Back(i, slot int, win []mpi.Request) {
	p, g, c := ph.p, ph.p.g, ph.p.c
	rec, b := p.pl.Rec, &p.last
	zc, y2c := g.ZC(), g.Y2C()
	lo, hi := ph.x.bounds(i)
	buf := ph.recv[slot]
	roff := 0
	t := c.Now()
	if !ph.x.colB {
		for cj := 0; cj < g.PC; cj++ {
			ys, ycnt := g.YD.Start(cj), g.YD.Count(cj)
			for lx := lo; lx < hi; lx++ {
				for ly := 0; ly < ycnt; ly++ {
					for lz := 0; lz < zc; lz++ {
						p.mid[(lx*zc+lz)*g.Ny+ys+ly] = buf[roff]
						roff++
					}
				}
			}
		}
		pfft.EndStep(c, rec, "Unpack", i, t, &b.Unpack)
		p.poll(win)
		t = c.Now()
		p.fy.Batch(p.mid[lo*zc*g.Ny:], (hi-lo)*zc, g.Ny)
		pfft.EndStep(c, rec, "FFTy", i, t, &b.FFTy)
	} else {
		for ri := 0; ri < g.PR; ri++ {
			xs, xcnt := g.XD.Start(ri), g.XD.Count(ri)
			for lx := 0; lx < xcnt; lx++ {
				for lz := lo; lz < hi; lz++ {
					for ly := 0; ly < y2c; ly++ {
						p.out[(ly*zc+lz)*g.Nx+xs+lx] = buf[roff]
						roff++
					}
				}
			}
		}
		pfft.EndStep(c, rec, "Unpack", i, t, &b.Unpack)
		p.poll(win)
		t = c.Now()
		for ly := 0; ly < y2c; ly++ {
			for lz := lo; lz < hi; lz++ {
				row := p.out[(ly*zc+lz)*g.Nx:][:g.Nx]
				p.fx.Transform(row, row)
			}
		}
		pfft.EndStep(c, rec, "FFTx", i, t, &b.FFTx)
	}
	p.poll(win)
}

func (ph *phase) Acct(int) *pfft.Breakdown { return &ph.p.last }

// poll issues the plan's F Test calls over win.
func (p *Plan) poll(win []mpi.Request) { pfft.Poll(p.c, win, p.prm.F, &p.last, p.pl.Rec) }

// ensureBackward lazily builds the inverse 1-D plans and the backward
// exchange buffers on the first Backward call, so forward-only plans pay
// nothing for them.
func (p *Plan) ensureBackward() {
	if p.bz != nil {
		return
	}
	g := p.g
	p.bz = fft.Plan1DCached(g.Nz, fft.Backward, p.flag).Clone()
	p.by = fft.Plan1DCached(g.Ny, fft.Backward, p.flag).Clone()
	p.bx = fft.Plan1DCached(g.Nx, fft.Backward, p.flag).Clone()
	p.in = make([]complex128, g.InSize())
	sendMax := g.OutSize()
	if g.MidSize() > sendMax {
		sendMax = g.MidSize()
	}
	recvMax := g.MidSize()
	if g.InSize() > recvMax {
		recvMax = g.InSize()
	}
	p.bsend = make([]complex128, sendMax)
	p.brecv = make([]complex128, recvMax)
}

// Backward executes one inverse transform: xp is this rank's spectrum
// x-pencil in y-z-x layout (length OutSize(), consumed — i.e. the forward
// output distribution), and the returned z-pencil in x-y-z layout matches
// the forward input distribution. Like the slab path the round trip is
// unnormalized: Forward then Backward multiplies by Nx·Ny·Nz. Both
// exchange phases run blocking (one whole-extent collective each, on
// every variant), which keeps collective sequence numbers aligned across
// ranks.
func (p *Plan) Backward(xp []complex128) ([]complex128, pfft.Breakdown, error) {
	g, c := p.g, p.c
	if len(xp) != g.OutSize() {
		return nil, pfft.Breakdown{}, fmt.Errorf("pencil: spectrum pencil length %d, want %d", len(xp), g.OutSize())
	}
	p.ensureBackward()
	var b pfft.Breakdown
	start := c.Now()
	mpi.SetExchange(c, mpi.Exchange{Alg: p.prm.Comm})
	p.pl.Rec.Reset()
	xc, yc, zc, y2c := g.XC(), g.YC(), g.ZC(), g.Y2C()

	// FFTx⁻¹ on the contiguous x rows.
	t := c.Now()
	p.bx.Batch(xp, y2c*zc, g.Nx)
	now := c.Now()
	b.FFTx += now - t
	p.pl.Rec.Add("FFTx", t, now, -1)

	// Inverse transpose B within the column group: return x-ranges, regather
	// y. The pack order to each destination mirrors the forward unpack read
	// order exactly, so the exchange is a strict inverse permutation.
	t = c.Now()
	for i := range p.sendCounts {
		p.sendCounts[i], p.recvCounts[i] = 0, 0
	}
	off := 0
	for ri := 0; ri < g.PR; ri++ {
		xs, xcnt := g.XD.Start(ri), g.XD.Count(ri)
		p.sendCounts[g.GlobalRank(ri, g.CI)] = xcnt * zc * y2c
		for lx := 0; lx < xcnt; lx++ {
			for lz := 0; lz < zc; lz++ {
				for ly := 0; ly < y2c; ly++ {
					p.bsend[off] = xp[(ly*zc+lz)*g.Nx+xs+lx]
					off++
				}
			}
		}
	}
	for ri := 0; ri < g.PR; ri++ {
		p.recvCounts[g.GlobalRank(ri, g.CI)] = xc * zc * g.YD2.Count(ri)
	}
	now = c.Now()
	b.Pack += now - t
	p.pl.Rec.Add("Pack", t, now, -1)
	t = c.Now()
	c.Alltoallv(p.bsend[:g.OutSize()], p.sendCounts, p.brecv[:g.MidSize()], p.recvCounts)
	now = c.Now()
	b.Wait += now - t
	p.pl.Rec.Add("Alltoall", t, now, -1)
	t = c.Now()
	roff := 0
	for ri := 0; ri < g.PR; ri++ {
		ys, ycnt := g.YD2.Start(ri), g.YD2.Count(ri)
		for lx := 0; lx < xc; lx++ {
			for lz := 0; lz < zc; lz++ {
				row := p.mid[(lx*zc+lz)*g.Ny:]
				copy(row[ys:ys+ycnt], p.brecv[roff:roff+ycnt])
				roff += ycnt
			}
		}
	}
	now = c.Now()
	b.Unpack += now - t
	p.pl.Rec.Add("Unpack", t, now, -1)

	// FFTy⁻¹.
	t = c.Now()
	p.by.Batch(p.mid, xc*zc, g.Ny)
	now = c.Now()
	b.FFTy += now - t
	p.pl.Rec.Add("FFTy", t, now, -1)

	// Inverse transpose A within the row group: return y-ranges, regather z.
	t = c.Now()
	for i := range p.sendCounts {
		p.sendCounts[i], p.recvCounts[i] = 0, 0
	}
	off = 0
	for cj := 0; cj < g.PC; cj++ {
		ys, ycnt := g.YD.Start(cj), g.YD.Count(cj)
		p.sendCounts[g.GlobalRank(g.RI, cj)] = xc * ycnt * zc
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < ycnt; ly++ {
				for lz := 0; lz < zc; lz++ {
					p.bsend[off] = p.mid[(lx*zc+lz)*g.Ny+ys+ly]
					off++
				}
			}
		}
	}
	for cj := 0; cj < g.PC; cj++ {
		p.recvCounts[g.GlobalRank(g.RI, cj)] = xc * yc * g.ZD.Count(cj)
	}
	now = c.Now()
	b.Pack += now - t
	p.pl.Rec.Add("Pack", t, now, -1)
	t = c.Now()
	c.Alltoallv(p.bsend[:g.MidSize()], p.sendCounts, p.brecv[:g.InSize()], p.recvCounts)
	now = c.Now()
	b.Wait += now - t
	p.pl.Rec.Add("Alltoall", t, now, -1)
	t = c.Now()
	roff = 0
	for cj := 0; cj < g.PC; cj++ {
		zs, zcnt := g.ZD.Start(cj), g.ZD.Count(cj)
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < yc; ly++ {
				row := p.in[(lx*yc+ly)*g.Nz:]
				copy(row[zs:zs+zcnt], p.brecv[roff:roff+zcnt])
				roff += zcnt
			}
		}
	}
	now = c.Now()
	b.Unpack += now - t
	p.pl.Rec.Add("Unpack", t, now, -1)

	// FFTz⁻¹.
	t = c.Now()
	p.bz.Batch(p.in, xc*yc, g.Nz)
	now = c.Now()
	b.FFTz += now - t
	p.pl.Rec.Add("FFTz", t, now, -1)

	b.Total = c.Now() - start
	p.last = b
	return p.in, b, nil
}

// Backward3D executes the blocking pencil-decomposed inverse 3-D FFT on
// this rank: the standalone counterpart of Forward3D. xp is the rank's
// spectrum x-pencil in y-z-x layout (the Forward3D output distribution,
// consumed); the result is the rank's z-pencil in x-y-z layout (the
// Forward3D input distribution). Unnormalized, like the forward path.
func Backward3D(c mpi.Comm, g Grid2D, xp []complex128, flag fft.Flag) ([]complex128, error) {
	p, err := NewPlan(c, g, pfft.Baseline, Params2D{}, flag)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out, _, err := p.Backward(xp)
	if err != nil {
		return nil, err
	}
	return append([]complex128(nil), out...), nil
}
