package pencil

import (
	"math"
	"slices"

	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
)

// Simulate runs the blocking pencil-decomposed 3-D FFT of an n³ array on a
// pr×pc simulated process grid and returns the job completion time
// (slowest rank, virtual nanoseconds). It charges Forward3D's kernels and
// two exchanges, as a Baseline plan's one-tile pipeline, enabling the 1-D-vs-2-D decomposition
// comparison of §2.2: one all-to-all over p ranks versus two all-to-alls
// over pc and pr ranks.
func Simulate(m machine.Machine, pr, pc, n int) (int64, error) {
	return SimulateGrid(m, pr, pc, n, n, n)
}

// SimulateGrid is Simulate for a general Nx×Ny×Nz grid: the one-tile,
// pairwise, F=0 case of SimulateOverlappedGrid.
func SimulateGrid(m machine.Machine, pr, pc, nx, ny, nz int) (int64, error) {
	g0, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	return SimulateOverlappedGrid(m, pr, pc, nx, ny, nz, blockingParams(g0, mpi.CommPairwise))
}

// SimulateOverlapped runs the overlapped pencil transform (the paper's §7
// future work realized: overlap + 2-D decomposition) on the simulated
// cluster and returns the job completion time. Comparing it against
// Simulate quantifies how much of the two exchange phases the pipeline
// hides.
func SimulateOverlapped(m machine.Machine, pr, pc, n int, prm Params2D) (int64, error) {
	return SimulateOverlappedGrid(m, pr, pc, n, n, n, prm)
}

// SimulateOverlappedGrid is SimulateOverlapped for a general Nx×Ny×Nz
// grid. Each rank drives both exchange phases through pfft.Pipeline — the
// control flow pencil plans execute — with cost stages in place of the
// kernels.
func SimulateOverlappedGrid(m machine.Machine, pr, pc, nx, ny, nz int, prm Params2D) (int64, error) {
	g0, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	if err := prm.Validate(g0); err != nil {
		return 0, err
	}
	p := pr * pc
	w := sim.NewWorld(m, p)
	ends := make([]int64, p)
	err = w.Run(func(c *sim.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		mpi.SetExchange(c, mpi.Exchange{Alg: prm.Comm})
		var pl pfft.Pipeline
		for _, x := range phases(g, prm) {
			st := &costStages{c: c, cmp: m.Cmp, x: x, f: prm.F, send: make([]int, p), recv: make([]int, p)}
			pl.Run(c, st, x.tiles(), x.w)
		}
		ends[c.Rank()] = c.Now()
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(ends), nil
}

// costStages charge one exchange phase's kernels in virtual time: each 1-D
// FFT at FFTNsPerUnit·N·log₂N per row, and each pack or unpack as a
// streaming copy at 1.5× the per-element memory cost (the copies stride
// through the pencil). Phase A is FFTz+pack / unpack+FFTy, phase B
// pack / unpack+FFTx, with F Test calls after every step.
type costStages struct {
	c          *sim.Comm
	cmp        machine.Compute
	x          exchange
	f          int
	send, recv []int
	b          pfft.Breakdown
}

func (s *costStages) fft(rows, length int) {
	var ns int64
	switch {
	case rows <= 0:
	case length < 2:
		ns = int64(s.cmp.FFTNsPerUnit * float64(rows))
	default:
		ns = int64(s.cmp.FFTNsPerUnit * float64(rows) * float64(length) * math.Log2(float64(length)))
	}
	s.c.Advance(ns)
}

func (s *costStages) copy(elems int) { s.c.Advance(int64(s.cmp.MemNsPerElem * 1.5 * float64(elems))) }

func (s *costStages) poll(win []mpi.Request) { pfft.Poll(s.c, win, s.f, &s.b, nil) }

func (s *costStages) Front(i, _ int, win []mpi.Request) {
	g := s.x.g
	lo, hi := s.x.bounds(i)
	send, _ := s.x.lens(i)
	if !s.x.colB {
		s.fft((hi-lo)*g.YC(), g.Nz)
		s.poll(win)
	}
	s.copy(send)
	s.poll(win)
}

func (s *costStages) Post(i, _ int) mpi.Request {
	s.x.counts(i, s.send, s.recv)
	return s.c.Ialltoallv(nil, s.send, nil, s.recv)
}

func (s *costStages) Back(i, _ int, win []mpi.Request) {
	g := s.x.g
	lo, hi := s.x.bounds(i)
	_, recv := s.x.lens(i)
	s.copy(recv)
	s.poll(win)
	if s.x.colB {
		s.fft(g.Y2C()*(hi-lo), g.Nx)
	} else {
		s.fft((hi-lo)*g.ZC(), g.Ny)
	}
	s.poll(win)
}

func (s *costStages) Acct(int) *pfft.Breakdown { return &s.b }
