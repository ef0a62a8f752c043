package pfft

import (
	"offt/internal/layout"
	"offt/internal/mpi"
)

// Engine supplies the kernels of the forward slab transform, which Run
// drives through the shared Pipeline. The real engine (NewRealEngine)
// performs the arithmetic; the cost-model engine (package model) charges
// virtual time for the same calls. Sub-tile coordinates follow package layout's conventions:
// zt0/ztl identify the communication tile (absolute start and length on z),
// z ranges are tile-local [z0, z1) ⊆ [0, ztl), x/y ranges are rank-local.
//
// Communication buffers are managed per slot: the pipeline assigns slot
// i mod (W+1) to tile i, guaranteeing a slot's previous tile has been
// waited for and unpacked before reuse. There is no blocking all-to-all:
// the blocking variants post a tile and Wait on it, which is what
// Alltoallv does on every mpi engine.
type Engine interface {
	// Grid returns the rank's geometry.
	Grid() layout.Grid
	// Comm returns the rank's communicator.
	Comm() mpi.Comm

	// FFTz computes all 1-D FFTs along z on the input slab (step 1).
	FFTz()
	// Transpose rearranges x-y-z to z-x-y, or to x-z-y when fast (§3.5).
	// optimized selects the cache-blocked kernel (NEW uses FFTW's tuned
	// rearrangement in the paper; TH's plain version is slower).
	Transpose(fast, optimized bool)
	// FFTySub computes the 1-D FFTs along y for sub-tile x∈[x0,x1),
	// tile-local z∈[z0,z1) of the tile starting at zt0.
	FFTySub(fast bool, zt0, z0, z1, x0, x1 int)
	// PackSub packs the same sub-tile into slot's send buffer.
	PackSub(slot int, fast bool, zt0, ztl, z0, z1, x0, x1 int)
	// PostTile starts the non-blocking all-to-all for the tile in slot.
	PostTile(slot int, ztl int) mpi.Request
	// UnpackSub unpacks sub-tile y∈[y0,y1), tile-local z∈[z0,z1) from
	// slot's receive buffer into the output slab.
	UnpackSub(slot int, fast bool, zt0, ztl, z0, z1, y0, y1 int)
	// FFTxSub computes the 1-D FFTs along x for the same sub-tile.
	FFTxSub(fast bool, zt0, z0, z1, y0, y1 int)
}

// runState is a forward execution's reusable scratch: the pipeline and
// the stages it drives. A Plan owns one so the steady state allocates
// nothing; the one-shot entry points use a fresh one per call.
type runState struct {
	pl Pipeline
	st fwdStages
}

// ExpandParams performs the variant-specific parameter expansion that Run
// applies before executing: Baseline ignores prm entirely (whole-slab tile,
// blocking, no Tests); NEW uses prm as given; NEW-0 zeroes the Test
// frequencies; TH/TH-0 keep T, W and the Fy frequency but force whole-tile
// pack/unpack (no loop tiling) and no Unpack/FFTx-side overlap. The
// expanded set is validated against the geometry.
func ExpandParams(v Variant, g layout.Grid, prm Params) (Params, error) {
	// The exchange schedule is orthogonal to the variant-specific expansion:
	// every variant keeps the caller's choice (Baseline's blocking all-to-all
	// included — blocking is just post+wait in both engines).
	comm := prm.Comm
	switch v {
	case Baseline:
		prm = DefaultParams(g)
		prm.T, prm.W = g.Nz, 1
		prm.Fy, prm.Fp, prm.Fu, prm.Fx = 0, 0, 0, 0
		prm.Comm = comm
		return prm, prm.Validate(g)
	case NEW0:
		prm.Fy, prm.Fp, prm.Fu, prm.Fx = 0, 0, 0, 0
	case TH:
		prm = Params{
			T: prm.T, W: prm.W,
			Px: g.XC(), Pz: prm.T, Uy: g.YC(), Uz: prm.T,
			Fy: prm.Fy, Fp: prm.Fy, Fu: 0, Fx: 0,
			Comm: comm,
		}
	case TH0:
		prm = Params{
			T: prm.T, W: prm.W,
			Px: g.XC(), Pz: prm.T, Uy: g.YC(), Uz: prm.T,
			Comm: comm,
		}
	}
	return prm, prm.Validate(g)
}

// Run executes one forward 3-D FFT with the given variant and parameters
// and returns this rank's per-step breakdown. Variant-specific parameter
// expansion happens internally (see ExpandParams): NEW takes the full
// ten-parameter set, TH/TH-0 read only T, W and Fy, Baseline ignores prm.
// Every rank of the world must call Run with the same arguments (SPMD).
func Run(e Engine, v Variant, prm Params) (Breakdown, error) {
	var rs runState
	return runWith(&rs, e, v, prm)
}

// runWith is Run on a caller-owned runState, letting a Plan reuse the
// pipeline, its request window and its stages across executions. Steps
// are recorded into rs.pl.Rec.
func runWith(rs *runState, e Engine, v Variant, prm Params) (Breakdown, error) {
	g := e.Grid()
	prm, err := ExpandParams(v, g, prm)
	if err != nil {
		return Breakdown{}, err
	}
	tl, err := layout.NewTiling(g.Nz, prm.T)
	if err != nil {
		panic(err) // unreachable: Validate checked T
	}
	c := e.Comm()
	rec := rs.pl.Rec
	selectExchange(c, prm.Comm, rec)
	// The §3.5 fast transpose applies only to NEW (and its ablation) when
	// Nx == Ny; TH and the FFTW baseline always use the standard layout.
	fast := g.FastPathOK() && (v == NEW || v == NEW0)
	rs.st = fwdStages{e: e, c: c, g: g, prm: prm, tl: tl, fast: fast, rec: rec}
	s := &rs.st
	start := c.Now()

	t := c.Now()
	e.FFTz()
	EndStep(c, rec, "FFTz", -1, t, &s.b.FFTz)
	t = c.Now()
	e.Transpose(fast, v != TH && v != TH0)
	EndStep(c, rec, "Transpose", -1, t, &s.b.Transpose)

	w := prm.W
	if v == Baseline || v == NEW0 || v == TH0 {
		w = 0 // blocking: one post+Wait per tile
	}
	rs.pl.Run(c, s, tl.NumTiles(), w)
	s.b.Total = c.Now() - start
	return s.b, nil
}
