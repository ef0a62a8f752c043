package pencil

import (
	"fmt"

	"offt/internal/mpi"
	"offt/internal/pfft"
)

// Params2D are the tunable parameters of the overlapped pencil transform:
// phase A (the row-group z↔y exchange) is tiled along the local x extent,
// phase B (the column-group x↔y exchange) along the local z extent; each
// phase pipelines its tiles through a window of concurrent all-to-alls
// with F MPI_Test calls per compute step, exactly the paper's §3 machinery
// applied to the 2-D decomposition (its §7 future work).
type Params2D struct {
	TA, WA int // phase A: x-tile size and window
	TB, WB int // phase B: z-tile size and window
	F      int // Test calls per compute step per tile
	// Comm is the all-to-all exchange schedule used by both phases (the
	// 11th tuned parameter); the zero value is round-robin pairwise.
	Comm mpi.CommAlg
}

// DefaultParams2D mirrors the §4.4 default-point philosophy: some tiling,
// window 2, p/2 tests.
func DefaultParams2D(g Grid2D) Params2D {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	f := g.P() / 2
	if f < 1 {
		f = 1
	}
	return Params2D{
		TA: clamp(g.XD.MaxCount()/4, 1, g.XD.MaxCount()),
		WA: 2,
		TB: clamp(g.ZD.MaxCount()/4, 1, g.ZD.MaxCount()),
		WB: 2,
		F:  f,
	}
}

// FromParams derives the overlapped pencil parameters from the public
// Table-1 parameter set: T tiles both exchange phases (clamped to each
// phase's extent), W windows both (clamped to the tile count), and Fy is
// the Test frequency. The remaining slab parameters (Px/Pz/Uy/Uz, the
// other frequencies, Pr) have no pencil counterpart here and are ignored.
func FromParams(p pfft.Params, g Grid2D) Params2D {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	ta := clamp(p.T, 1, g.XD.MaxCount())
	tb := clamp(p.T, 1, g.ZD.MaxCount())
	f := p.Fy
	if f < 0 {
		f = 0
	}
	return Params2D{
		TA:   ta,
		WA:   clamp(p.W, 1, (g.XD.MaxCount()+ta-1)/ta),
		TB:   tb,
		WB:   clamp(p.W, 1, (g.ZD.MaxCount()+tb-1)/tb),
		F:    f,
		Comm: p.Comm,
	}
}

// Validate checks the parameters against the geometry.
func (p Params2D) Validate(g Grid2D) error {
	switch {
	case p.TA < 1 || p.TA > g.XD.MaxCount():
		return fmt.Errorf("pencil: TA=%d out of range [1,%d]", p.TA, g.XD.MaxCount())
	case p.TB < 1 || p.TB > g.ZD.MaxCount():
		return fmt.Errorf("pencil: TB=%d out of range [1,%d]", p.TB, g.ZD.MaxCount())
	case p.WA < 1 || p.WB < 1:
		return fmt.Errorf("pencil: windows must be >= 1 (got %d, %d)", p.WA, p.WB)
	case p.F < 0:
		return fmt.Errorf("pencil: F=%d must be >= 0", p.F)
	case !p.Comm.Valid():
		return fmt.Errorf("pencil: Comm=%d is not a known exchange schedule", int(p.Comm))
	}
	return nil
}

// blockingParams is the one-tile-per-phase parameter set of the Baseline
// and NEW0 variants and of the blocking simulator: one whole-extent
// exchange per phase with no Test calls, keeping the exchange schedule.
func blockingParams(g Grid2D, comm mpi.CommAlg) Params2D {
	return Params2D{TA: g.XD.MaxCount(), WA: 1, TB: g.ZD.MaxCount(), WB: 1, Comm: comm}
}

// exchange is one forward all-to-all phase cut into pipeline tiles — the
// one tile-bounds/counts description the real plan and the simulator
// share. Phase A (row group, swaps the y and z splits) tiles the local x
// extent; phase B (column group, swaps the x and y splits) tiles the
// local z extent. Every rank runs the tile count of the GLOBAL maximum
// extent, so all ranks issue the same number of collectives even when
// the distribution is uneven; ranks with a smaller extent run trailing
// empty tiles.
type exchange struct {
	g    Grid2D
	colB bool // phase B
	t, w int  // tile size and window
}

// phases returns the forward transform's two exchange phases.
func phases(g Grid2D, prm Params2D) [2]exchange {
	return [2]exchange{{g: g, t: prm.TA, w: prm.WA}, {g: g, colB: true, t: prm.TB, w: prm.WB}}
}

// tiles returns the phase's tile count.
func (x exchange) tiles() int {
	if x.colB {
		return (x.g.ZD.MaxCount() + x.t - 1) / x.t
	}
	return (x.g.XD.MaxCount() + x.t - 1) / x.t
}

// bounds returns tile i's local range [lo, hi) on the tiled axis.
func (x exchange) bounds(i int) (lo, hi int) {
	n := x.g.XC()
	if x.colB {
		n = x.g.ZC()
	}
	return min(i*x.t, n), min(i*x.t+x.t, n)
}

// lens returns tile i's send and receive buffer lengths.
func (x exchange) lens(i int) (send, recv int) {
	lo, hi := x.bounds(i)
	g, n := x.g, hi-lo
	if x.colB {
		return g.XC() * g.Ny * n, g.Nx * g.Y2C() * n
	}
	return n * g.YC() * g.Nz, n * g.Ny * g.ZC()
}

// counts fills tile i's per-rank element counts; ranks outside the
// phase's group get zero.
func (x exchange) counts(i int, send, recv []int) {
	clear(send)
	clear(recv)
	lo, hi := x.bounds(i)
	g, n := x.g, hi-lo
	if x.colB {
		for ri := 0; ri < g.PR; ri++ {
			send[g.GlobalRank(ri, g.CI)] = g.XC() * g.YD2.Count(ri) * n
			recv[g.GlobalRank(ri, g.CI)] = g.XD.Count(ri) * g.Y2C() * n
		}
		return
	}
	for cj := 0; cj < g.PC; cj++ {
		send[g.GlobalRank(g.RI, cj)] = n * g.YC() * g.ZD.Count(cj)
		recv[g.GlobalRank(g.RI, cj)] = n * g.YD.Count(cj) * g.ZC()
	}
}
