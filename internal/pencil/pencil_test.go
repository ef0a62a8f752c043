package pencil

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"offt/internal/fft"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/mem"
	"offt/internal/pfft"
)

func randCube(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func maxErr(a, b []complex128) float64 {
	var norm float64 = 1
	for i := range a {
		if m := cmplx.Abs(a[i]); m > norm {
			norm = m
		}
	}
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d/norm > worst {
			worst = d / norm
		}
	}
	return worst
}

func runPencil(t *testing.T, full []complex128, nx, ny, nz, pr, pc int) []complex128 {
	t.Helper()
	p := pr * pc
	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		slab := ScatterPencil(full, g)
		out, err := Forward3D(c, g, slab, fft.Estimate)
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	return GatherPencil(outs, nx, ny, nz, pr, pc)
}

func TestPencilMatchesSerial(t *testing.T) {
	cases := []struct{ nx, ny, nz, pr, pc int }{
		{8, 8, 8, 2, 2},
		{8, 8, 8, 1, 4},
		{8, 8, 8, 4, 1},
		{12, 12, 12, 2, 3},
		{12, 12, 12, 3, 2},
		{16, 16, 16, 4, 4},
		{9, 10, 11, 3, 2}, // non-divisible everything
		{10, 12, 8, 2, 4}, // rectangular
		{8, 8, 8, 1, 1},   // single rank
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%dx%d-%dx%d", c.nx, c.ny, c.nz, c.pr, c.pc)
		t.Run(name, func(t *testing.T) {
			full := randCube(c.nx*c.ny*c.nz, 17)
			want := append([]complex128(nil), full...)
			fft.NewPlan3D(c.nx, c.ny, c.nz, fft.Forward).Transform(want)
			got := runPencil(t, full, c.nx, c.ny, c.nz, c.pr, c.pc)
			if e := maxErr(got, want); e > 1e-9 {
				t.Errorf("error %g", e)
			}
		})
	}
}

func TestPencilAgreesWithSlab(t *testing.T) {
	// The 1-D slab result (pfft) and the 2-D pencil result must be the
	// same transform, whatever the decomposition.
	nx, ny, nz := 12, 12, 12
	full := randCube(nx*ny*nz, 23)
	want := append([]complex128(nil), full...)
	fft.NewPlan3D(nx, ny, nz, fft.Forward).Transform(want)
	got := runPencil(t, full, nx, ny, nz, 2, 2)
	if e := maxErr(got, want); e > 1e-9 {
		t.Errorf("pencil disagrees with serial by %g", e)
	}
}

func TestGrid2DValidation(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz, pr, pc, rank int
		ok                       bool
	}{
		{8, 8, 8, 2, 2, 0, true},
		{8, 8, 8, 2, 2, 3, true},
		{8, 8, 8, 2, 2, 4, false},
		{8, 8, 8, 0, 2, 0, false},
		{8, 8, 8, 2, 2, -1, false},
		{0, 8, 8, 2, 2, 0, false},
		{2, 8, 8, 4, 2, 0, false}, // Nx < pr
		{8, 8, 2, 2, 4, 0, false}, // Nz < pc
	} {
		_, err := NewGrid2D(c.nx, c.ny, c.nz, c.pr, c.pc, c.rank)
		if (err == nil) != c.ok {
			t.Errorf("NewGrid2D(%v): err=%v, want ok=%v", c, err, c.ok)
		}
	}
}

func TestGrid2DSizes(t *testing.T) {
	g, err := NewGrid2D(9, 10, 11, 3, 2, 5) // ri=2, ci=1
	if err != nil {
		t.Fatal(err)
	}
	if g.RI != 2 || g.CI != 1 {
		t.Errorf("grid coords %d,%d", g.RI, g.CI)
	}
	if g.InSize() != g.XC()*g.YC()*11 {
		t.Error("InSize inconsistent")
	}
	if g.MidSize() != g.XC()*10*g.ZC() {
		t.Error("MidSize inconsistent")
	}
	if g.OutSize() != g.Y2C()*g.ZC()*9 {
		t.Error("OutSize inconsistent")
	}
	// Pencil sizes must tile the full array exactly.
	var in, out int
	for r := 0; r < g.P(); r++ {
		gr, _ := NewGrid2D(9, 10, 11, 3, 2, r)
		in += gr.InSize()
		out += gr.OutSize()
	}
	if in != 9*10*11 || out != 9*10*11 {
		t.Errorf("pencils don't tile the array: in=%d out=%d want %d", in, out, 990)
	}
}

func TestPencilScalesBeyondSlabLimit(t *testing.T) {
	// §2.2's scalability claim: the 1-D slab decomposition cannot use more
	// than min(Nx, Ny) ranks, while the pencil method keeps scaling (up to
	// Nx·Ny). At p = 4·N the slab geometry is invalid but the pencil runs
	// and beats the pencil at a quarter of the ranks.
	m := machine.Hopper()
	n := 32
	if _, err := model.SimulateCube(m, 4*n, n, model.Spec{Variant: pfft.Baseline}); err == nil {
		t.Fatal("slab decomposition should reject p > N")
	}
	quarter, err := Simulate(m, 8, 4, n) // p = n
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(m, 16, 8, n) // p = 4n: impossible for the slab
	if err != nil {
		t.Fatal(err)
	}
	if !(full < quarter) {
		t.Errorf("pencil at p=%d (%d ns) should beat p=%d (%d ns)", 4*n, full, n, quarter)
	}
}

func TestSlabBeatsPencilWhereItFits(t *testing.T) {
	// §2.2's flip side: the pencil method pays two all-to-all phases (twice
	// the transposed bytes), so where the slab fits, it can be the better
	// choice — which is why the paper focuses on 1-D decomposition.
	m := machine.UMDCluster()
	n, p := 64, 64
	slab, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	pencil2D, err := Simulate(m, 8, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	if !(slab.MaxTotal < pencil2D) {
		t.Errorf("slab (%d) should beat 2-D (%d) at p=%d N=%d on this network", slab.MaxTotal, pencil2D, p, n)
	}
}

func TestSimulateSlabCompetitiveAtLowP(t *testing.T) {
	// At small p the slab method's single exchange is competitive: the
	// pencil method must not win by more than its extra-copy overhead
	// could explain (sanity check on the model, not a strict ordering).
	m := machine.UMDCluster()
	n, p := 64, 4
	slab, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	pencil2D, err := Simulate(m, 2, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	if pencil2D < slab.MaxTotal/2 {
		t.Errorf("implausible: 2-D (%d) more than 2x faster than slab (%d) at p=4", pencil2D, slab.MaxTotal)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := machine.Hopper()
	a, err := Simulate(m, 4, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(m, 4, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

func TestSimulateRejectsBadGrid(t *testing.T) {
	if _, err := Simulate(machine.Laptop(), 8, 8, 4); err == nil {
		t.Error("expected error for N < grid")
	}
}

// assertSameSpectrum fails unless got and want are bit-identical.
func assertSameSpectrum(t *testing.T, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: plan %v != Forward3D %v", i, got[i], want[i])
		}
	}
}

// TestOverlappedPencilMatchesSerial: the overlapped pipeline of a NEW
// plan — uneven splits, F 0–3, windows up to 3 — reproduces the blocking
// Forward3D spectrum bit for bit.
func TestOverlappedPencilMatchesSerial(t *testing.T) {
	cases := []struct {
		nx, ny, nz, pr, pc int
		prm                Params2D
	}{
		{8, 8, 8, 2, 2, Params2D{TA: 2, WA: 2, TB: 2, WB: 1, F: 2}},
		{12, 12, 12, 3, 2, Params2D{TA: 1, WA: 3, TB: 3, WB: 2, F: 1}},
		{16, 16, 16, 2, 4, Params2D{TA: 8, WA: 1, TB: 4, WB: 2, F: 0}},
		{9, 10, 11, 3, 2, Params2D{TA: 2, WA: 2, TB: 2, WB: 2, F: 2}}, // uneven splits
		{10, 12, 8, 2, 4, Params2D{TA: 5, WA: 2, TB: 2, WB: 2, F: 3}},
		{7, 7, 7, 2, 3, Params2D{TA: 1, WA: 3, TB: 1, WB: 3, F: 3}}, // uneven, trailing empty tiles
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%dx%d-%dx%d", c.nx, c.ny, c.nz, c.pr, c.pc)
		t.Run(name, func(t *testing.T) {
			full := randCube(c.nx*c.ny*c.nz, 55)
			want := runPencil(t, full, c.nx, c.ny, c.nz, c.pr, c.pc)
			got, _ := runPlan(t, full, c.nx, c.ny, c.nz, c.pr, c.pc, pfft.NEW, c.prm, 1)
			assertSameSpectrum(t, got, want)
		})
	}
}

// TestOverlappedPencilDefaultParams: the default overlap point is valid
// and its plan reproduces Forward3D bit for bit.
func TestOverlappedPencilDefaultParams(t *testing.T) {
	nx := 12
	full := randCube(nx*nx*nx, 56)
	g0, _ := NewGrid2D(nx, nx, nx, 2, 3, 0)
	prm := DefaultParams2D(g0)
	if err := prm.Validate(g0); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	want := runPencil(t, full, nx, nx, nx, 2, 3)
	got, _ := runPlan(t, full, nx, nx, nx, 2, 3, pfft.NEW, prm, 1)
	assertSameSpectrum(t, got, want)
}

func TestParams2DValidation(t *testing.T) {
	g, _ := NewGrid2D(8, 8, 8, 2, 2, 0)
	bad := []Params2D{
		{TA: 0, WA: 1, TB: 1, WB: 1},
		{TA: 99, WA: 1, TB: 1, WB: 1},
		{TA: 1, WA: 0, TB: 1, WB: 1},
		{TA: 1, WA: 1, TB: 0, WB: 1},
		{TA: 1, WA: 1, TB: 1, WB: 1, F: -1},
	}
	for i, p := range bad {
		if err := p.Validate(g); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestOverlappedPencilBeatsBlockingInSim(t *testing.T) {
	// The paper's future work realized: applying the §3 overlap machinery
	// to the 2-D decomposition must beat the blocking pencil transform on
	// a comm-heavy simulated machine.
	m := machine.UMDCluster()
	pr, pc, n := 8, 8, 128
	g0, _ := NewGrid2D(n, n, n, pr, pc, 0)
	blocking, err := Simulate(m, pr, pc, n)
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := SimulateOverlapped(m, pr, pc, n, DefaultParams2D(g0))
	if err != nil {
		t.Fatal(err)
	}
	if !(overlapped < blocking) {
		t.Errorf("overlapped pencil (%d) not faster than blocking (%d)", overlapped, blocking)
	}
	t.Logf("blocking %.4fs, overlapped %.4fs (%.2fx)",
		float64(blocking)/1e9, float64(overlapped)/1e9, float64(blocking)/float64(overlapped))
}

func TestSimulateOverlappedValidates(t *testing.T) {
	if _, err := SimulateOverlapped(machine.Laptop(), 2, 2, 16, Params2D{}); err == nil {
		t.Error("expected validation error for zero params")
	}
	if _, err := SimulateOverlapped(machine.Laptop(), 9, 9, 4, Params2D{TA: 1, WA: 1, TB: 1, WB: 1}); err == nil {
		t.Error("expected geometry error")
	}
}
