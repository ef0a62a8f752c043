package main

import (
	"fmt"
	"math"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	"offt/internal/pfft"
)

// probeReps is how many timed calls each standalone layer probe makes; the
// median is recorded.
const probeReps = 7

// flopsPer1D is the conventional 5·N·log₂N flop count of one length-n FFT.
func flopsPer1D(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// probeRows records fft.* for length-n rows: contiguous batches as FFTz
// sees them and y-strided lines as FFTy sees them, over one rank's slab of
// planes×n×n elements.
func probeRows(r *run, n, planes int) {
	buf := make([]complex128, planes*n*n)
	for i := range buf {
		buf[i] = complex(float64(i%7), float64(i%5))
	}
	plan := fft.NewPlan(n, fft.Forward)
	rows := planes * n
	flops := float64(rows) * flopsPer1D(n)
	rowMs := quantile(timeMs(probeReps, func() { plan.TransformRows(buf, rows, n) }), 0.5)
	strMs := quantile(timeMs(probeReps, func() {
		for p := 0; p < planes; p++ {
			plan.StridedRows(buf, p*n*n, n, n, 1)
		}
	}), 0.5)
	r.set("fft.rows_gflops", flops/rowMs/1e6, probeReps)
	r.set("fft.strided_gflops", flops/strMs/1e6, probeReps)
	r.set("fft.flops_per_op", 3*float64(n*n)*flopsPer1D(n), 1)
}

// gbps converts bytes moved per call and a median call time into GB/s.
func gbps(bytes float64, ms []float64) float64 { return bytes / quantile(ms, 0.5) / 1e6 }

// probeSlabLayers records the fft.*, layout.*, host.copy_gbps and
// mpi.alltoallv_ms layer metrics on the tiles of an n³ slab plan over
// ranks ranks. Layout bandwidths are computed: read plus written bytes of
// each kernel call over its measured time.
func probeSlabLayers(r *run, n, ranks int) error {
	grids := make([]layout.Grid, ranks)
	for i := range grids {
		g, err := layout.NewGrid(n, n, n, ranks, i)
		if err != nil {
			return err
		}
		grids[i] = g
	}
	g := grids[0]
	probeRows(r, n, g.XC())

	fast := pfft.OutputFast(pfft.NEW, g)
	t := pfft.DefaultParams(g).T
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(float64(i%11), float64(i%3))
	}
	src := make([]complex128, g.InSize())
	dst := make([]complex128, g.InSize())
	out := make([]complex128, g.OutSize())
	send := make([]complex128, g.SendBufLen(t))
	recv := make([]complex128, g.RecvBufLen(t))
	copy(src, full)
	slabBytes := float64(32 * g.InSize()) // 16 bytes read + 16 written per element
	fullBytes := float64(32 * len(full))

	transpose := layout.TransposeZXY
	if fast {
		transpose = layout.TransposeXZY
	}
	r.set("layout.transpose_gbps", gbps(slabBytes, timeMs(probeReps, func() {
		transpose(dst, src, g.XC(), g.Ny, g.Nz)
	})), probeReps)
	r.set("layout.pack_gbps", gbps(slabBytes, timeMs(probeReps, func() {
		for z := 0; z < g.Nz; z += t {
			ztl := min(t, g.Nz-z)
			g.PackTile(send[:g.SendBufLen(ztl)], dst, fast, z, ztl)
		}
	})), probeReps)
	r.set("layout.unpack_gbps", gbps(float64(32*g.OutSize()), timeMs(probeReps, func() {
		for z := 0; z < g.Nz; z += t {
			ztl := min(t, g.Nz-z)
			g.UnpackTile(out, recv[:g.RecvBufLen(ztl)], fast, z, ztl)
		}
	})), probeReps)

	slabs := make([][]complex128, ranks)
	outs := make([][]complex128, ranks)
	for i, gi := range grids {
		slabs[i] = make([]complex128, gi.InSize())
		outs[i] = make([]complex128, gi.OutSize())
	}
	r.set("layout.scatter_gbps", gbps(fullBytes, timeMs(probeReps, func() {
		for i, gi := range grids {
			layout.ScatterXInto(slabs[i], full, gi)
		}
	})), probeReps)
	r.set("layout.gather_gbps", gbps(fullBytes, timeMs(probeReps, func() {
		layout.GatherYInto(full, outs, n, n, n, ranks, fast)
	})), probeReps)
	probeHostCopy(r, len(full))

	ms, err := memAlltoallv(grids, t)
	if err != nil {
		return err
	}
	r.set("mpi.alltoallv_ms", ms, probeReps)
	return nil
}

// probeHostCopy measures plain copy bandwidth over n elements, the ceiling
// the layout bandwidths are read against.
func probeHostCopy(r *run, n int) {
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i), 0)
	}
	r.set("host.copy_gbps", gbps(float64(32*n), timeMs(probeReps, func() { copy(b, a) })), probeReps)
}

// memAlltoallv times a standalone blocking Alltoallv of one pipeline tile's
// block sizes (z-length t) on a fresh mem world, and returns rank 0's median
// in ms.
func memAlltoallv(grids []layout.Grid, t int) (float64, error) {
	var ms []float64
	err := mem.NewWorld(len(grids)).Run(func(c *mem.Comm) {
		g := grids[c.Rank()]
		sendCounts := make([]int, g.P)
		recvCounts := make([]int, g.P)
		g.SendCounts(t, sendCounts)
		g.RecvCounts(t, recvCounts)
		if got := timeAlltoallv(c, sendCounts, recvCounts); c.Rank() == 0 {
			ms = got
		}
	})
	if err != nil {
		return 0, fmt.Errorf("mem alltoallv: %w", err)
	}
	return quantile(ms, 0.5), nil
}

// timeAlltoallv runs probeReps barrier-separated Alltoallv calls with the
// given block sizes on one rank; rank 0 returns its per-call times in ms.
func timeAlltoallv(c mpi.Comm, sendCounts, recvCounts []int) []float64 {
	send := make([]complex128, mpi.TotalCount(sendCounts))
	recv := make([]complex128, mpi.TotalCount(recvCounts))
	var out []float64
	for i := 0; i < probeReps; i++ {
		c.Barrier()
		t0 := time.Now()
		c.Alltoallv(send, sendCounts, recv, recvCounts)
		out = append(out, float64(time.Since(t0))/1e6)
	}
	c.Barrier()
	if c.Rank() != 0 {
		return nil
	}
	return out
}

// slabExchangeBytes is the computed payload one slab transform moves between
// distinct ranks: every element except the 1/p that stays local, 16 bytes
// each.
func slabExchangeBytes(n, ranks int) float64 {
	return 16 * float64(n*n*n) * float64(ranks-1) / float64(ranks)
}
