package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// EngineOpt configures a RealEngine beyond the required arguments.
type EngineOpt func(*engineConfig)

type engineConfig struct {
	workers int
	pooled  bool
}

// WithEngineWorkers fans the intra-rank kernels (FFTz, Transpose, FFTy,
// Pack, Unpack, FFTx) across n goroutines. n <= 1 keeps the serial,
// allocation-free path.
func WithEngineWorkers(n int) EngineOpt {
	return func(c *engineConfig) { c.workers = n }
}

// WithPooledBuffers sources the engine's work slab and communication slots
// from the package slab arena; Close returns them. The output slab is never
// pooled — Output() escapes to callers.
func WithPooledBuffers() EngineOpt {
	return func(c *engineConfig) { c.pooled = true }
}

// RealEngine executes the algorithm on actual complex128 data over any
// mpi.Comm (normally the mem engine). It is the numerically verified
// implementation; the cost-model engine in package model mirrors its
// control flow in virtual time.
type RealEngine struct {
	g    layout.Grid
	comm mpi.Comm

	in   []complex128 // input x-slab, x-y-z layout; clobbered by FFTz
	work []complex128 // post-transpose slab (z-x-y or x-z-y)
	out  []complex128 // output y-slab (z-y-x or y-z-x)

	planZ, planY, planX *fft.Plan

	// pool is non-nil only with WithEngineWorkers(n>1); every kernel method
	// branches on it at the call site so the serial path never builds a
	// closure (which would escape to the heap via the jobs channel).
	pool                   *kernelPool
	planZs, planYs, planXs []*fft.Plan // per-chunk clones, len = workers

	sendBufs, recvBufs [][]complex128
	sendCounts         []int
	recvCounts         []int

	pooled bool // work + slot buffers came from the arena
}

var _ Engine = (*RealEngine)(nil)

// NewRealEngine prepares a real-data engine for one rank. slab is the
// rank's input x-slab in x-y-z layout (length g.InSize()); it is consumed
// (overwritten during FFTz). flag selects the planner effort for the 1-D
// FFT plans. dir is the transform direction of the 1-D kernels (Forward
// for the usual forward 3-D FFT).
func NewRealEngine(g layout.Grid, comm mpi.Comm, slab []complex128, dir fft.Direction, flag fft.Flag, opts ...EngineOpt) (*RealEngine, error) {
	if len(slab) != g.InSize() {
		return nil, fmt.Errorf("pfft: slab length %d, want %d", len(slab), g.InSize())
	}
	if comm.Rank() != g.Rank || comm.Size() != g.P {
		return nil, fmt.Errorf("pfft: comm rank/size %d/%d does not match grid %d/%d", comm.Rank(), comm.Size(), g.Rank, g.P)
	}
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &RealEngine{
		g:      g,
		comm:   comm,
		in:     slab,
		out:    make([]complex128, g.OutSize()),
		planZ:  fft.Plan1DCached(g.Nz, dir, flag).Clone(),
		planY:  fft.Plan1DCached(g.Ny, dir, flag).Clone(),
		planX:  fft.Plan1DCached(g.Nx, dir, flag).Clone(),
		pooled: cfg.pooled,
	}
	if cfg.pooled {
		e.work = getSlab(g.InSize())
	} else {
		e.work = make([]complex128, g.InSize())
	}
	if cfg.workers > 1 {
		e.pool = newKernelPool(cfg.workers)
		e.planZs = fft.Plan1DClones(g.Nz, dir, flag, cfg.workers)
		e.planYs = fft.Plan1DClones(g.Ny, dir, flag, cfg.workers)
		e.planXs = fft.Plan1DClones(g.Nx, dir, flag, cfg.workers)
	}
	e.sendCounts = make([]int, g.P)
	e.recvCounts = make([]int, g.P)
	return e, nil
}

// Reset points the engine at a new input slab so a Plan can execute many
// transforms on one engine. The slab is consumed like NewRealEngine's.
func (e *RealEngine) Reset(slab []complex128) error {
	if len(slab) != e.g.InSize() {
		return fmt.Errorf("pfft: slab length %d, want %d", len(slab), e.g.InSize())
	}
	e.in = slab
	return nil
}

// PresizeSlots grows the communication slot buffers for the expanded
// parameter set so steady-state execution never allocates: W+1 slots, each
// sized for the largest tile (z-length min(T, Nz)).
func (e *RealEngine) PresizeSlots(prm Params) {
	ztl := prm.T
	if ztl > e.g.Nz {
		ztl = e.g.Nz
	}
	for s := 0; s <= prm.W; s++ {
		e.sendBuf(s, ztl)
		e.recvBuf(s, ztl)
	}
}

// Close releases the engine's worker pool and, for arena-backed engines,
// returns the work slab and communication slots to the arena. The output
// slab is untouched: it may still be referenced by the caller.
func (e *RealEngine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
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

// Grid returns the rank's geometry.
func (e *RealEngine) Grid() layout.Grid { return e.g }

// Comm returns the rank's communicator.
func (e *RealEngine) Comm() mpi.Comm { return e.comm }

// Output returns the rank's output y-slab. Layout is z-y-x, or y-z-x when
// the fast path was used (NEW/NEW-0 with Nx == Ny). The slab is owned by
// the engine: a reused Plan overwrites it on the next execution.
func (e *RealEngine) Output() []complex128 { return e.out }

// FFTz transforms every z row of the input slab in place through the
// batched multi-row engine.
func (e *RealEngine) FFTz() {
	rows := e.g.XC() * e.g.Ny
	if e.pool != nil {
		nz := e.g.Nz
		in := e.in
		e.pool.parallel(rows, func(w, lo, hi int) {
			e.planZs[w].TransformRows(in[lo*nz:hi*nz], hi-lo, nz)
		})
		return
	}
	e.planZ.TransformRows(e.in, rows, e.g.Nz)
}

// Transpose rearranges the slab into the post-FFTz layout. The
// unoptimized variant (TH) uses a deliberately naive element loop instead
// of the cache-blocked kernel, mirroring the paper's observation that TH's
// rearrangement is slower than FFTW's tuned one.
func (e *RealEngine) Transpose(fast, optimized bool) {
	xc, ny, nz := e.g.XC(), e.g.Ny, e.g.Nz
	switch {
	case fast:
		if e.pool != nil {
			e.pool.parallel(xc, func(w, lo, hi int) {
				layout.TransposeXZYRange(e.work, e.in, xc, ny, nz, lo, hi)
			})
			return
		}
		layout.TransposeXZY(e.work, e.in, xc, ny, nz)
	case optimized:
		if e.pool != nil {
			e.pool.parallel(xc, func(w, lo, hi int) {
				layout.TransposeZXYRange(e.work, e.in, xc, ny, nz, lo, hi)
			})
			return
		}
		layout.TransposeZXY(e.work, e.in, xc, ny, nz)
	default:
		// Naive traversal: same result, no cache blocking.
		for lx := 0; lx < xc; lx++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					e.work[(z*xc+lx)*ny+y] = e.in[(lx*ny+y)*nz+z]
				}
			}
		}
	}
}

// FFTySub transforms the y rows of one Pack sub-tile. Rows are grouped
// into the contiguous runs the slab layout provides — fast layout
// (x-z-y): the z rows of one lx are adjacent; standard layout (z-x-y):
// the lx rows of one z are adjacent — and each run goes through the
// batched multi-row engine. Worker-pool chunks split over runs, still
// entirely inside this one sub-tile call, so the MPI_Test cadence around
// it is unchanged.
func (e *RealEngine) FFTySub(fast bool, zt0, z0, z1, x0, x1 int) {
	ny := e.g.Ny
	if fast {
		if e.pool != nil {
			e.pool.parallel(x1-x0, func(w, lo, hi int) {
				p := e.planYs[w]
				for lx := x0 + lo; lx < x0+hi; lx++ {
					base := e.g.RowYBase(fast, zt0+z0, lx)
					p.TransformRows(e.work[base:], z1-z0, ny)
				}
			})
			return
		}
		for lx := x0; lx < x1; lx++ {
			base := e.g.RowYBase(fast, zt0+z0, lx)
			e.planY.TransformRows(e.work[base:], z1-z0, ny)
		}
		return
	}
	if e.pool != nil {
		e.pool.parallel(z1-z0, func(w, lo, hi int) {
			p := e.planYs[w]
			for z := zt0 + z0 + lo; z < zt0+z0+hi; z++ {
				base := e.g.RowYBase(fast, z, x0)
				p.TransformRows(e.work[base:], x1-x0, ny)
			}
		})
		return
	}
	for z := zt0 + z0; z < zt0+z1; z++ {
		base := e.g.RowYBase(fast, z, x0)
		e.planY.TransformRows(e.work[base:], x1-x0, ny)
	}
}

// PackSub packs one sub-tile into the slot's send buffer.
func (e *RealEngine) PackSub(slot int, fast bool, zt0, ztl, z0, z1, x0, x1 int) {
	buf := e.sendBuf(slot, ztl)
	if e.pool != nil {
		e.pool.parallel(e.g.P, func(w, r0, r1 int) {
			e.g.PackSubtileRanks(buf, e.work, fast, zt0, ztl, x0, x1, z0, z1, r0, r1)
		})
		return
	}
	e.g.PackSubtile(buf, e.work, fast, zt0, ztl, x0, x1, z0, z1)
}

// PostTile starts the non-blocking all-to-all for the slot's tile.
func (e *RealEngine) PostTile(slot int, ztl int) mpi.Request {
	e.g.SendCounts(ztl, e.sendCounts)
	e.g.RecvCounts(ztl, e.recvCounts)
	return e.comm.Ialltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

// UnpackSub unpacks one sub-tile from the slot's receive buffer into the
// output slab.
func (e *RealEngine) UnpackSub(slot int, fast bool, zt0, ztl, z0, z1, y0, y1 int) {
	buf := e.recvBuf(slot, ztl)
	if e.pool != nil {
		e.pool.parallel(e.g.P, func(w, s0, s1 int) {
			e.g.UnpackSubtileRanks(e.out, buf, fast, zt0, ztl, y0, y1, z0, z1, s0, s1)
		})
		return
	}
	e.g.UnpackSubtile(e.out, buf, fast, zt0, ztl, y0, y1, z0, z1)
}

// FFTxSub transforms the x rows of one Unpack sub-tile, batched over the
// output layout's contiguous runs — fast layout (y-z-x): the z rows of one
// ly are adjacent; standard layout (z-y-x): the ly rows of one z are
// adjacent. Pool chunks split over runs inside this one call (see
// FFTySub for the Test-cadence argument).
func (e *RealEngine) FFTxSub(fast bool, zt0, z0, z1, y0, y1 int) {
	nx := e.g.Nx
	if fast {
		if e.pool != nil {
			e.pool.parallel(y1-y0, func(w, lo, hi int) {
				p := e.planXs[w]
				for ly := y0 + lo; ly < y0+hi; ly++ {
					base := e.g.RowXBase(fast, ly, zt0+z0)
					p.TransformRows(e.out[base:], z1-z0, nx)
				}
			})
			return
		}
		for ly := y0; ly < y1; ly++ {
			base := e.g.RowXBase(fast, ly, zt0+z0)
			e.planX.TransformRows(e.out[base:], z1-z0, nx)
		}
		return
	}
	if e.pool != nil {
		e.pool.parallel(z1-z0, func(w, lo, hi int) {
			p := e.planXs[w]
			for z := zt0 + z0 + lo; z < zt0+z0+hi; z++ {
				base := e.g.RowXBase(fast, y0, z)
				p.TransformRows(e.out[base:], y1-y0, nx)
			}
		})
		return
	}
	for z := zt0 + z0; z < zt0+z1; z++ {
		base := e.g.RowXBase(fast, y0, z)
		e.planX.TransformRows(e.out[base:], y1-y0, nx)
	}
}

// sendBuf returns slot's send buffer sized for a tile of z-length ztl,
// growing the slot lazily.
func (e *RealEngine) sendBuf(slot, ztl int) []complex128 {
	for len(e.sendBufs) <= slot {
		e.sendBufs = append(e.sendBufs, nil)
	}
	n := e.g.SendBufLen(ztl)
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

func (e *RealEngine) recvBuf(slot, ztl int) []complex128 {
	for len(e.recvBufs) <= slot {
		e.recvBufs = append(e.recvBufs, nil)
	}
	n := e.g.RecvBufLen(ztl)
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
