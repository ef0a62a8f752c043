package pfft

import (
	"sync"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
)

// TestForwardManyMatchesSerial: the inter-array pipeline matches the
// serial transform, also when a 1 ns wait deadline under dropped messages
// downgrades it to the blocking drain (arrays posted first).
func TestForwardManyMatchesSerial(t *testing.T) {
	nx, p, m := 12, 3, 4 // m arrays
	fulls := make([][]complex128, m)
	wants := make([][]complex128, m)
	for i := 0; i < m; i++ {
		fulls[i] = randCube(nx, nx, nx, int64(100+i))
		wants[i] = serialReference(fulls[i], nx, nx, nx)
	}
	fp, err := fault.NewPlan(5, fault.ProfileDrop, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		degraded bool
		opts     []mem.Option
	}{
		{"healthy", false, nil},
		{"degraded", true, []mem.Option{mem.WithFaults(fp), mem.WithDeadline(time.Nanosecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mem.NewWorld(p, tc.opts...)
			outs := make([][][]complex128, p) // [rank][array]
			var downgrades int64
			var mu sync.Mutex
			err := w.Run(func(c *mem.Comm) {
				g, err := layout.NewGrid(nx, nx, nx, p, c.Rank())
				if err != nil {
					panic(err)
				}
				slabs := make([][]complex128, m)
				for i := range slabs {
					slabs[i] = layout.ScatterX(fulls[i], g)
				}
				o, bs, err := ForwardMany3D(c, g, slabs, 2, fft.Estimate)
				if err != nil {
					panic(err)
				}
				if len(bs) != m {
					panic("wrong breakdown count")
				}
				mu.Lock()
				outs[c.Rank()] = o
				for _, b := range bs {
					downgrades += b.Downgrades
				}
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.degraded && downgrades == 0 {
				t.Error("no downgrade under a 1 ns wait deadline")
			}
			for i := 0; i < m; i++ {
				slabs := make([][]complex128, p)
				for r := 0; r < p; r++ {
					slabs[r] = outs[r][i]
				}
				got := layout.GatherY(slabs, nx, nx, nx, p, false)
				if e := maxErr(got, wants[i]); e > tol {
					t.Errorf("array %d: error %g", i, e)
				}
			}
		})
	}
}

func TestRunManyValidation(t *testing.T) {
	p := 1
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(8, 8, 8, 1, 0)
		e, err := NewRealEngine(g, c, make([]complex128, g.InSize()), fft.Forward, fft.Estimate)
		if err != nil {
			panic(err)
		}
		if _, err := RunMany([]Engine{e}, 0); err == nil {
			t.Error("expected window validation error")
		}
		if bs, err := RunMany(nil, 1); err != nil || bs != nil {
			t.Error("empty engine list should be a no-op")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
