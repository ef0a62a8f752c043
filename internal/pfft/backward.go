package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// Backward3D executes the distributed inverse 3-D FFT, mirroring the
// forward pipeline (§2.3 of the paper notes the approach applies directly
// backward). slab is this rank's y-slab in the forward output layout of
// the same variant (z-y-x, or y-z-x on the §3.5 fast path); the returned
// slice is the rank's x-slab in x-y-z layout. The transform is
// unnormalized: Forward3D followed by Backward3D multiplies by Nx·Ny·Nz.
//
// The NEW variant overlaps the inverse computation steps (FFTx⁻¹, Repack,
// Scatter, FFTy⁻¹) with the reverse non-blocking all-to-all using the same
// ten parameters; Baseline and NEW-0 run the blocking pipeline. The TH
// variants are forward-only comparison models and are rejected.
func Backward3D(c mpi.Comm, g layout.Grid, slab []complex128, v Variant, prm Params, flag fft.Flag) ([]complex128, Breakdown, error) {
	e, err := newBackEngine(c, g, flag)
	if err != nil {
		return nil, Breakdown{}, err
	}
	var pl Pipeline
	b, err := e.run(&pl, slab, v, prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return e.in, b, nil
}

// backEngine holds the backward pipeline's state for one rank and is its
// Stages: FFTx⁻¹+Repack in front, Scatter+FFTy⁻¹ behind. In the
// breakdown, Repack time is accounted under Pack and Scatter under Unpack
// (they are the corresponding copy steps of the reverse direction). A
// backEngine is reusable: run may be called many times with fresh slabs,
// which is how a Plan serves repeated inverse transforms without
// allocating.
type backEngine struct {
	g    layout.Grid
	comm mpi.Comm

	out  []complex128 // input y-slab (forward output), consumed by FFTx⁻¹
	work []complex128 // post-scatter z-x-y (or x-z-y) slab
	in   []complex128 // final x-y-z slab; owned by the engine, reused per run

	planZ, planY, planX *fft.Plan

	sendBufs, recvBufs [][]complex128
	sendCounts         []int
	recvCounts         []int

	pooled bool

	// Per-run stage state, set by run.
	prm  Params
	tl   layout.Tiling
	fast bool
	b    Breakdown
	rec  *Recorder
}

// newBackEngine prepares a reusable backward engine for one rank.
func newBackEngine(c mpi.Comm, g layout.Grid, flag fft.Flag, opts ...EngineOpt) (*backEngine, error) {
	if c.Rank() != g.Rank || c.Size() != g.P {
		return nil, fmt.Errorf("pfft: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P)
	}
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &backEngine{
		g:     g,
		comm:  c,
		in:    make([]complex128, g.InSize()),
		planZ: fft.Plan1DCached(g.Nz, fft.Backward, flag).Clone(),
		planY: fft.Plan1DCached(g.Ny, fft.Backward, flag).Clone(),
		planX: fft.Plan1DCached(g.Nx, fft.Backward, flag).Clone(),

		pooled: cfg.pooled,
	}
	if cfg.pooled {
		e.work = getSlab(g.InSize())
	} else {
		e.work = make([]complex128, g.InSize())
	}
	e.sendCounts = make([]int, g.P)
	e.recvCounts = make([]int, g.P)
	return e, nil
}

// presizeSlots mirrors RealEngine.PresizeSlots for the reverse direction.
func (e *backEngine) presizeSlots(prm Params) {
	ztl := prm.T
	if ztl > e.g.Nz {
		ztl = e.g.Nz
	}
	for s := 0; s <= prm.W; s++ {
		e.sendBuf(s, ztl)
		e.recvBuf(s, ztl)
	}
}

// Close returns arena-backed buffers. The result slab (in) is never
// pooled: callers may still reference it.
func (e *backEngine) Close() {
	if !e.pooled {
		return
	}
	putSlab(e.work)
	e.work = nil
	for i, b := range e.sendBufs {
		putSlab(b)
		e.sendBufs[i] = nil
	}
	for i, b := range e.recvBufs {
		putSlab(b)
		e.recvBufs[i] = nil
	}
	e.pooled = false
}

// run executes one inverse transform on slab (this rank's y-slab in the
// forward output layout; consumed) and leaves the x-y-z result in e.in.
// Steps are recorded into pl.Rec.
func (e *backEngine) run(pl *Pipeline, slab []complex128, v Variant, prm Params) (Breakdown, error) {
	if v == TH || v == TH0 {
		return Breakdown{}, fmt.Errorf("pfft: backward transform does not support the %v comparison model", v)
	}
	prm, err := ExpandParams(v, e.g, prm)
	if err != nil {
		return Breakdown{}, err
	}
	if len(slab) != e.g.OutSize() {
		return Breakdown{}, fmt.Errorf("pfft: backward slab length %d, want %d", len(slab), e.g.OutSize())
	}
	tl, err := layout.NewTiling(e.g.Nz, prm.T)
	if err != nil {
		panic(err) // unreachable: Validate checked T
	}
	c, g := e.comm, e.g
	e.out, e.prm, e.tl, e.fast, e.b, e.rec = slab, prm, tl, OutputFast(v, g), Breakdown{}, pl.Rec
	selectExchange(c, prm.Comm, e.rec)
	start := c.Now()
	w := prm.W
	if v != NEW {
		w = 0 // blocking: one post+Wait per tile
	}
	pl.Run(c, e, tl.NumTiles(), w)

	// Inverse transpose back to x-y-z, then inverse FFTz.
	t := c.Now()
	if e.fast {
		layout.TransposeXZYInv(e.in, e.work, g.XC(), g.Ny, g.Nz)
	} else {
		layout.TransposeZXYInv(e.in, e.work, g.XC(), g.Ny, g.Nz)
	}
	EndStep(c, e.rec, "Transpose", -1, t, &e.b.Transpose)
	t = c.Now()
	e.planZ.TransformRows(e.in, g.XC()*g.Ny, g.Nz)
	EndStep(c, e.rec, "FFTz", -1, t, &e.b.FFTz)

	e.b.Total = c.Now() - start
	return e.b, nil
}

// Front runs FFTx⁻¹ and Repack over one tile with Uy/Uz loop tiling,
// interleaving Fx and Fu Test calls over the window.
func (e *backEngine) Front(tile, slot int, window []mpi.Request) {
	c, g, prm, fast := e.comm, e.g, e.prm, e.fast
	zt0, ztl := e.tl.TileStart(tile), e.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Uz) * layout.NumSubTiles(g.YC(), prm.Uy)
	u := 0
	buf := e.sendBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Uz, func(z0, z1 int) {
		layout.SubTiles(g.YC(), prm.Uy, func(y0, y1 int) {
			t := c.Now()
			// Batched over the layout's contiguous runs (see FFTxSub).
			if fast {
				for ly := y0; ly < y1; ly++ {
					base := g.RowXBase(fast, ly, zt0+z0)
					e.planX.TransformRows(e.out[base:], z1-z0, g.Nx)
				}
			} else {
				for z := zt0 + z0; z < zt0+z1; z++ {
					base := g.RowXBase(fast, y0, z)
					e.planX.TransformRows(e.out[base:], y1-y0, g.Nx)
				}
			}
			EndStep(c, e.rec, "FFTx", tile, t, &e.b.FFTx)
			Poll(c, window, testsDue(prm.Fx, u, nSub), &e.b, e.rec)
			t = c.Now()
			g.RepackSubtile(buf, e.out, fast, zt0, ztl, y0, y1, z0, z1)
			EndStep(c, e.rec, "Pack", tile, t, &e.b.Pack)
			Poll(c, window, testsDue(prm.Fu, u, nSub), &e.b, e.rec)
			u++
		})
	})
}

// Back runs Scatter and FFTy⁻¹ over one tile with Px/Pz loop tiling,
// interleaving Fp and Fy Test calls over the window.
func (e *backEngine) Back(tile, slot int, window []mpi.Request) {
	c, g, prm, fast := e.comm, e.g, e.prm, e.fast
	zt0, ztl := e.tl.TileStart(tile), e.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Pz) * layout.NumSubTiles(g.XC(), prm.Px)
	u := 0
	buf := e.recvBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Pz, func(z0, z1 int) {
		layout.SubTiles(g.XC(), prm.Px, func(x0, x1 int) {
			t := c.Now()
			g.ScatterSubtile(e.work, buf, fast, zt0, ztl, z0, z1, x0, x1)
			EndStep(c, e.rec, "Unpack", tile, t, &e.b.Unpack)
			Poll(c, window, testsDue(prm.Fp, u, nSub), &e.b, e.rec)
			t = c.Now()
			// Batched over the layout's contiguous runs (see FFTySub).
			if fast {
				for lx := x0; lx < x1; lx++ {
					base := g.RowYBase(fast, zt0+z0, lx)
					e.planY.TransformRows(e.work[base:], z1-z0, g.Ny)
				}
			} else {
				for z := zt0 + z0; z < zt0+z1; z++ {
					base := g.RowYBase(fast, z, x0)
					e.planY.TransformRows(e.work[base:], x1-x0, g.Ny)
				}
			}
			EndStep(c, e.rec, "FFTy", tile, t, &e.b.FFTy)
			Poll(c, window, testsDue(prm.Fy, u, nSub), &e.b, e.rec)
			u++
		})
	})
}

// Post starts the reverse non-blocking all-to-all for one tile: the send
// side carries the forward transform's receive-format blocks.
func (e *backEngine) Post(tile, slot int) mpi.Request {
	ztl := e.tl.TileLen(tile)
	e.g.RecvCounts(ztl, e.sendCounts) // reverse direction
	e.g.SendCounts(ztl, e.recvCounts)
	return e.comm.Ialltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

// Acct charges every tile to the one transform's breakdown.
func (e *backEngine) Acct(int) *Breakdown { return &e.b }

func (e *backEngine) sendBuf(slot, ztl int) []complex128 {
	for len(e.sendBufs) <= slot {
		e.sendBufs = append(e.sendBufs, nil)
	}
	n := e.g.RecvBufLen(ztl) // reverse direction: recv-format on the way out
	if cap(e.sendBufs[slot]) < n {
		if e.pooled {
			putSlab(e.sendBufs[slot])
			e.sendBufs[slot] = getSlab(n)
		} else {
			e.sendBufs[slot] = make([]complex128, n)
		}
	}
	return e.sendBufs[slot][:n]
}

func (e *backEngine) recvBuf(slot, ztl int) []complex128 {
	for len(e.recvBufs) <= slot {
		e.recvBufs = append(e.recvBufs, nil)
	}
	n := e.g.SendBufLen(ztl)
	if cap(e.recvBufs[slot]) < n {
		if e.pooled {
			putSlab(e.recvBufs[slot])
			e.recvBufs[slot] = getSlab(n)
		} else {
			e.recvBufs[slot] = make([]complex128, n)
		}
	}
	return e.recvBufs[slot][:n]
}
