package pencil

import (
	"fmt"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/pfft"
)

// runPlan scatters full, runs one (or more) Forward executions through a
// reusable Plan on every rank, and gathers the result.
func runPlan(t *testing.T, full []complex128, nx, ny, nz, pr, pc int, v pfft.Variant, prm Params2D, execs int, wopts ...mem.Option) ([]complex128, []pfft.Breakdown) {
	t.Helper()
	p := pr * pc
	w := mem.NewWorld(p, wopts...)
	outs := make([][]complex128, p)
	bds := make([]pfft.Breakdown, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := NewPlan(c, g, v, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		slab := make([]complex128, g.InSize())
		var out []complex128
		var b pfft.Breakdown
		for e := 0; e < execs; e++ {
			ScatterPencilInto(slab, full, g)
			out, b, err = pl.Forward(slab)
			if err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		bds[c.Rank()] = b
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	return GatherPencil(outs, nx, ny, nz, pr, pc), bds
}

// TestPlanMatchesForward3D: the reusable pipelined Plan must produce
// bit-identical spectra to the one-shot blocking Forward3D on every
// variant, including mixed-radix, prime and non-cubic grids with uneven
// pencil distributions.
func TestPlanMatchesForward3D(t *testing.T) {
	cases := []struct {
		nx, ny, nz, pr, pc int
	}{
		{16, 16, 16, 2, 2},
		{12, 10, 8, 2, 3}, // mixed radix, uneven y split
		{7, 7, 7, 2, 3},   // prime lines, uneven everywhere
		{8, 12, 4, 3, 2},  // non-cubic
	}
	for _, tc := range cases {
		for _, v := range []pfft.Variant{pfft.Baseline, pfft.NEW, pfft.NEW0} {
			name := fmt.Sprintf("%dx%dx%d_%dx%d_%v", tc.nx, tc.ny, tc.nz, tc.pr, tc.pc, v)
			t.Run(name, func(t *testing.T) {
				full := randCube(tc.nx*tc.ny*tc.nz, 11)
				want := runPencil(t, full, tc.nx, tc.ny, tc.nz, tc.pr, tc.pc)
				got, _ := runPlan(t, full, tc.nx, tc.ny, tc.nz, tc.pr, tc.pc, v, Params2D{}, 2)
				assertSameSpectrum(t, got, want)
			})
		}
	}
}

// TestPlanBackwardRoundTrip: Backward(Forward(x)) must equal Nx·Ny·Nz · x
// for all variants (the backward path is shared), on awkward grids too.
func TestPlanBackwardRoundTrip(t *testing.T) {
	cases := []struct {
		nx, ny, nz, pr, pc int
	}{
		{16, 16, 16, 2, 2},
		{12, 10, 8, 2, 3},
		{7, 7, 7, 2, 3},
		{8, 12, 4, 3, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%dx%d_%dx%d", tc.nx, tc.ny, tc.nz, tc.pr, tc.pc), func(t *testing.T) {
			nx, ny, nz, pr, pc := tc.nx, tc.ny, tc.nz, tc.pr, tc.pc
			full := randCube(nx*ny*nz, 23)
			p := pr * pc
			w := mem.NewWorld(p)
			res := make([]complex128, nx*ny*nz)
			err := w.Run(func(c *mem.Comm) {
				g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
				if err != nil {
					panic(err)
				}
				pl, err := NewPlan(c, g, pfft.NEW, Params2D{}, fft.Estimate)
				if err != nil {
					panic(err)
				}
				defer pl.Close()
				slab := make([]complex128, g.InSize())
				ScatterPencilInto(slab, full, g)
				out, _, err := pl.Forward(slab)
				if err != nil {
					panic(err)
				}
				spec := append([]complex128(nil), out...)
				back, _, err := pl.Backward(spec)
				if err != nil {
					panic(err)
				}
				c.Barrier()
				GatherInputInto(res, back, g) // disjoint rank regions
			})
			if err != nil {
				t.Fatalf("world failed: %v", err)
			}
			scale := complex(float64(nx*ny*nz), 0)
			want := make([]complex128, len(full))
			for i := range full {
				want[i] = full[i] * scale
			}
			if e := maxErr(want, res); e > 1e-9 {
				t.Fatalf("round-trip error %g", e)
			}
		})
	}
}

// TestPlanDegradesUnderFaults: with an aggressively short soft wait
// deadline and an injected fault mix, the pipeline must downgrade (at
// least once, on some rank) and still produce the exact blocking-path
// spectrum.
func TestPlanDegradesUnderFaults(t *testing.T) {
	const nx, ny, nz, pr, pc = 16, 16, 16, 2, 2
	full := randCube(nx*ny*nz, 31)
	want := runPencil(t, full, nx, ny, nz, pr, pc)
	fp, err := fault.NewPlan(7, fault.ProfileDrop, pr*pc)
	if err != nil {
		t.Fatal(err)
	}
	got, bds := runPlan(t, full, nx, ny, nz, pr, pc, pfft.NEW, Params2D{}, 1,
		mem.WithFaults(fp), mem.WithDeadline(time.Nanosecond))
	var dg int64
	for _, b := range bds {
		dg += b.Downgrades
	}
	if dg == 0 {
		t.Fatalf("expected at least one overlapped→blocking downgrade under a 1ns deadline")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d after downgrade: %v != %v", i, got[i], want[i])
		}
	}
}

// TestPlanTraceRecordsDowngrade: a traced NEW plan under a 1 ns wait
// deadline records the downgrade as a Downgrade instant followed by
// blocking Alltoall spans — the event names the slab pipeline uses — and
// still produces the Forward3D spectrum.
func TestPlanTraceRecordsDowngrade(t *testing.T) {
	const nx, ny, nz, pr, pc = 16, 16, 16, 2, 2
	full := randCube(nx*ny*nz, 37)
	want := runPencil(t, full, nx, ny, nz, pr, pc)
	fp, err := fault.NewPlan(7, fault.ProfileDrop, pr*pc)
	if err != nil {
		t.Fatal(err)
	}
	// One-plane tiles: each phase has 8 tiles, so a wait giving up early
	// leaves tiles for the blocking drain.
	prm := Params2D{TA: 1, WA: 2, TB: 1, WB: 2, F: 1}
	p := pr * pc
	w := mem.NewWorld(p, mem.WithFaults(fp), mem.WithDeadline(time.Nanosecond))
	outs := make([][]complex128, p)
	traces := make([][]pfft.StepEvent, p)
	err = w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := NewPlan(c, g, pfft.NEW, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		pl.EnableTrace()
		out, _, err := pl.Forward(ScatterPencil(full, g))
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		traces[c.Rank()] = append([]pfft.StepEvent(nil), pl.Trace()...)
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	assertSameSpectrum(t, GatherPencil(outs, nx, ny, nz, pr, pc), want)
	found := false
	for r, evs := range traces {
		downgraded := false
		for _, e := range evs {
			switch {
			case e.Name == "Downgrade":
				downgraded = true
				if e.Tile < 0 || e.Start != e.End {
					t.Errorf("rank %d: Downgrade event %+v is not an instant with a tile", r, e)
				}
			case e.Name == "Alltoall" && downgraded:
				found = true
			}
		}
	}
	if !found {
		t.Error("no rank recorded a Downgrade instant followed by Alltoall spans")
	}
}

// TestPlanStandaloneBackward3D: the standalone helper must invert
// Forward3D.
func TestPlanStandaloneBackward3D(t *testing.T) {
	const nx, ny, nz, pr, pc = 8, 12, 4, 2, 2
	full := randCube(nx*ny*nz, 5)
	p := pr * pc
	w := mem.NewWorld(p)
	res := make([]complex128, nx*ny*nz)
	err := w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		out, err := Forward3D(c, g, ScatterPencil(full, g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		back, err := Backward3D(c, g, out, fft.Estimate)
		if err != nil {
			panic(err)
		}
		c.Barrier()
		GatherInputInto(res, back, g)
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	scale := complex(float64(nx*ny*nz), 0)
	want := make([]complex128, len(full))
	for i := range full {
		want[i] = full[i] * scale
	}
	if e := maxErr(want, res); e > 1e-9 {
		t.Fatalf("round-trip error %g", e)
	}
}
