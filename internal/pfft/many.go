package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// RunMany executes m independent 3-D FFTs with inter-array overlap — the
// Kandalla et al. style the paper compares against (§6) and proposes to
// combine with its intra-array method (§7): while one array's all-to-all
// is in flight, the CPU computes on other arrays. Each array has its own
// Engine (its own slab and buffers) over the same communicator. The arrays
// are the tiles of the shared Pipeline, which posts each array before
// waiting on the one `window` arrays back (Pipeline.postFirst).
//
// Each array is processed as a single whole-slab tile (no intra-array
// tiling): FFTz → Transpose → FFTy → Pack → non-blocking all-to-all, then
// later Wait → Unpack → FFTx. A Test call between per-array phases keeps
// rendezvous traffic progressing without hardware offload.
//
// This style only helps when many independent arrays exist; scientific
// simulations doing successive FFTs on a single array (the paper's target
// workload) cannot use it — which is the paper's criticism of the
// inter-array approach.
func RunMany(engines []Engine, window int) ([]Breakdown, error) {
	m := len(engines)
	if m == 0 {
		return nil, nil
	}
	if window < 1 {
		return nil, fmt.Errorf("pfft: RunMany window %d < 1", window)
	}
	c := engines[0].Comm()
	for _, e := range engines {
		if e.Comm() != c {
			return nil, fmt.Errorf("pfft: RunMany engines must share one communicator")
		}
	}
	s := &manyStages{
		engines: engines, c: c, window: window,
		bs: make([]Breakdown, m), starts: make([]int64, m), posted: make([]mpi.Request, m),
	}
	pl := Pipeline{postFirst: true}
	pl.Run(c, s, m, window)
	return s.bs, nil
}

// manyStages runs whole arrays as pipeline tiles: array i's front is FFTz,
// Transpose, FFTy and Pack, its back Unpack and FFTx, each array in slot 0
// of its own engine. Every array keeps its own Breakdown, Total included.
type manyStages struct {
	engines []Engine
	c       mpi.Comm
	window  int
	bs      []Breakdown
	starts  []int64
	posted  []mpi.Request
}

func (s *manyStages) Front(i, _ int, window []mpi.Request) {
	e, c, b := s.engines[i], s.c, &s.bs[i]
	g := e.Grid()
	s.starts[i] = c.Now()
	t := c.Now()
	e.FFTz()
	b.FFTz = c.Now() - t
	t = c.Now()
	e.Transpose(false, true)
	b.Transpose = c.Now() - t
	Poll(c, window, 1, b, nil)
	t = c.Now()
	e.FFTySub(false, 0, 0, g.Nz, 0, g.XC())
	b.FFTy = c.Now() - t
	Poll(c, window, 1, b, nil)
	t = c.Now()
	e.PackSub(0, false, 0, g.Nz, 0, g.Nz, 0, g.XC())
	b.Pack = c.Now() - t
}

func (s *manyStages) Post(i, _ int) mpi.Request {
	s.posted[i] = s.engines[i].PostTile(0, s.engines[i].Grid().Nz)
	return s.posted[i]
}

// Back polls the `window` most recently posted arrays, not the driver's
// window: once every array is posted, that includes arrays already waited
// for. This is the inter-array Test cadence the pinned virtual times
// (tuner.TestGoldenVirtualTimes) hold RunMany to.
func (s *manyStages) Back(j, _ int, _ []mpi.Request) {
	e, c, b := s.engines[j], s.c, &s.bs[j]
	g := e.Grid()
	t := c.Now()
	e.UnpackSub(0, false, 0, g.Nz, 0, g.Nz, 0, g.YC())
	b.Unpack = c.Now() - t
	hi := min(j+s.window+1, len(s.engines))
	Poll(c, s.posted[max(0, hi-s.window):hi], 1, b, nil)
	t = c.Now()
	e.FFTxSub(false, 0, 0, g.Nz, 0, g.YC())
	b.FFTx = c.Now() - t
	b.Total = c.Now() - s.starts[j]
}

func (s *manyStages) Acct(i int) *Breakdown { return &s.bs[i] }

// ForwardMany3D runs m independent forward transforms with inter-array
// overlap on the real engine: slabs[i] is array i's x-slab for this rank
// (consumed). It returns the per-array output y-slabs (z-y-x layout) and
// breakdowns. All arrays share the geometry g.
func ForwardMany3D(c mpi.Comm, g layout.Grid, slabs [][]complex128, window int, flag fft.Flag) ([][]complex128, []Breakdown, error) {
	engines := make([]Engine, len(slabs))
	reals := make([]*RealEngine, len(slabs))
	// Batch engines draw their work slab and communication slots from the
	// package arena: after the batch, Close below recycles them, so the
	// next ForwardMany3D call (the many-transform steady state) reuses the
	// same slabs instead of re-allocating per array.
	closeAll := func() {
		for _, e := range reals {
			if e != nil {
				e.Close()
			}
		}
	}
	for i, slab := range slabs {
		e, err := NewRealEngine(g, c, slab, fft.Forward, flag, WithPooledBuffers())
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("pfft: array %d: %w", i, err)
		}
		reals[i] = e
		engines[i] = e
	}
	bs, err := RunMany(engines, window)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	outs := make([][]complex128, len(slabs))
	for i, e := range reals {
		outs[i] = e.Output() // never pooled: survives Close
	}
	closeAll()
	return outs, bs, nil
}
