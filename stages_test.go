package offt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"offt/internal/layout"
	"offt/internal/pencil"
)

func stageData(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return data
}

// sameBits reports the first index where a and b differ bit for bit, or -1.
func sameBits(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestPWideStagesMatchSerialKernels: the p-wide scatter and gather stages
// of a mem plan produce exactly what the serial per-rank kernels produce,
// on non-divisible shapes, for both slab output layouts and a 3×2 pencil
// grid, in both directions.
func TestPWideStagesMatchSerialKernels(t *testing.T) {
	for _, tc := range []struct {
		name          string
		nx, ny, nz, p int
		decomp        Decomp
		pr            int // pencil process-grid rows
		fast          bool
	}{
		{"slab/zyx", 30, 28, 26, 3, Slab, 0, false},
		{"slab/yzx", 30, 30, 26, 3, Slab, 0, true},
		{"pencil/3x2", 30, 28, 26, 6, Pencil, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithGrid(tc.nx, tc.ny, tc.nz), WithRanks(tc.p), WithDecomp(tc.decomp), WithVariant(NEW)}
			if tc.pr > 0 {
				prm, err := DefaultParams(tc.nx, tc.ny, tc.nz, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				prm.Pr = tc.pr
				opts = append(opts, WithParams(prm))
			}
			plan, err := NewPlan(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			if plan.fast != tc.fast {
				t.Fatalf("plan output layout fast=%v, want %v", plan.fast, tc.fast)
			}
			if tc.pr > 0 && (plan.pgrids[0].PR != 3 || plan.pgrids[0].PC != 2) {
				t.Fatalf("process grid %d×%d, want 3×2", plan.pgrids[0].PR, plan.pgrids[0].PC)
			}
			n := tc.nx * tc.ny * tc.nz
			data := stageData(n, 11)
			spec := make([]complex128, n)
			back := make([]complex128, n)
			ref := make([]complex128, n)

			// Forward gather: the plan's p-wide gather vs the serial one
			// over the same rank outputs.
			if err := plan.ForwardInto(spec, data); err != nil {
				t.Fatal(err)
			}
			if tc.decomp == Slab {
				layout.GatherYInto(ref, plan.outs, tc.nx, tc.ny, tc.nz, tc.p, tc.fast)
			} else {
				for r := 0; r < tc.p; r++ {
					pencil.GatherPencilInto(ref, plan.outs[r], plan.pgrids[r])
				}
			}
			if i := sameBits(spec, ref); i >= 0 {
				t.Fatalf("forward gather differs from the serial kernel at %d", i)
			}

			// Backward gather, likewise.
			if err := plan.BackwardInto(back, spec); err != nil {
				t.Fatal(err)
			}
			if tc.decomp == Slab {
				layout.GatherXInto(ref, plan.outs, tc.nx, tc.ny, tc.nz, tc.p)
			} else {
				for r := 0; r < tc.p; r++ {
					pencil.GatherInputInto(ref, plan.outs[r], plan.pgrids[r])
				}
			}
			if i := sameBits(back, ref); i >= 0 {
				t.Fatalf("backward gather differs from the serial kernel at %d", i)
			}

			// Both scatters, stage by stage, against the serial kernels.
			plan.scatter(opForward, data)
			plan.scatter(opBackward, spec)
			for r := 0; r < tc.p; r++ {
				var fwd, bwd []complex128
				if tc.decomp == Pencil {
					fwd = pencil.ScatterPencil(data, plan.pgrids[r])
					bwd = make([]complex128, plan.pgrids[r].OutSize())
					pencil.ScatterSpectrumInto(bwd, spec, plan.pgrids[r])
				} else {
					fwd = layout.ScatterX(data, plan.grids[r])
					bwd = layout.ScatterY(spec, plan.grids[r], tc.fast)
				}
				if i := sameBits(plan.slabs[r], fwd); i >= 0 {
					t.Fatalf("rank %d forward scatter differs from the serial kernel at %d", r, i)
				}
				if i := sameBits(plan.bslabs[r], bwd); i >= 0 {
					t.Fatalf("rank %d backward scatter differs from the serial kernel at %d", r, i)
				}
			}
		})
	}
}

// TestFailedDispatchLeavesDstUntouched: a transform whose world dies
// mid-dispatch never reaches the gather, so the caller's dst keeps its
// contents in both directions.
func TestFailedDispatchLeavesDstUntouched(t *testing.T) {
	const n = 8
	for _, op := range []jobOp{opForward, opBackward} {
		plan, err := NewPlan(
			WithGrid(n, n, n), WithRanks(2),
			WithFaultPlan(&FaultPlan{Seed: 1, DropRate: 1}), // blackhole
			WithWatchdog(150*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		sentinel := complex(-7, 7)
		dst := make([]complex128, n*n*n)
		for i := range dst {
			dst[i] = sentinel
		}
		data := stageData(n*n*n, 3)
		if op == opForward {
			err = plan.ForwardInto(dst, data)
		} else {
			err = plan.BackwardInto(dst, data)
		}
		plan.Close()
		if err == nil {
			t.Fatalf("op %d succeeded over a blackholed world", op)
		}
		for i, v := range dst {
			if v != sentinel {
				t.Fatalf("op %d: failed dispatch wrote dst[%d] = %v", op, i, v)
			}
		}
	}
}

// TestPlanIntoSteadyStateBytes is the mem-engine allocation gate: once a
// plan is warm, ForwardInto/BackwardInto round trips through the real
// transport allocate (almost) nothing — exchanged payloads come from the
// world's free list, not the heap. Before payload recycling this was the
// full exchanged volume (~0.4 MiB per op at 32³, ~16.8 MB at 128³).
func TestPlanIntoSteadyStateBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-instrumented runtime allocates on its own")
	}
	const (
		n        = 32
		maxBytes = 64 << 10
		trips    = 8
	)
	data := stageData(n*n*n, 5)
	for _, decomp := range []Decomp{Slab, Pencil} {
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/p%d", decomp, p), func(t *testing.T) {
				plan, err := NewPlan(WithGrid(n, n, n), WithRanks(p), WithDecomp(decomp), WithVariant(NEW))
				if err != nil {
					t.Fatal(err)
				}
				defer plan.Close()
				spec := make([]complex128, n*n*n)
				back := make([]complex128, n*n*n)
				roundTrip := func() {
					if err := plan.ForwardInto(spec, data); err != nil {
						t.Fatal(err)
					}
					if err := plan.BackwardInto(back, spec); err != nil {
						t.Fatal(err)
					}
				}
				// Warm up: lazy buffers, request windows, the free list.
				roundTrip()
				roundTrip()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				for i := 0; i < trips; i++ {
					roundTrip()
				}
				runtime.ReadMemStats(&ms1)
				perOp := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (2 * trips)
				t.Logf("%.0f B/op", perOp)
				if perOp > maxBytes {
					t.Errorf("steady-state transform allocates %.0f B/op, want <= %d", perOp, maxBytes)
				}
			})
		}
	}
}
