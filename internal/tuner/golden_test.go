package tuner

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi"
	"offt/internal/mpi/sim"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// goldenVirtualTimes pins the exact virtual-time results of every
// simulated control flow the tuner and the experiments rely on: the slab
// cost-model engine on all variants, both pencil simulators, the
// inter-array pipeline and the two tuned optima. The pipelines are one
// shared driver under different stages; any change to loop order, Test
// cadence, downgrade bookkeeping or exchange posting moves at least one of
// these numbers. Regenerate only for a deliberate cost-model change, with
// OFFT_GOLDEN_PRINT=1 go test -run TestGoldenVirtualTimes ./internal/tuner.
var goldenVirtualTimes = map[string]string{
	"many/ends":                              "[22468642 22468642 23057891 23647140 24236389 24825638 25414887 26004136]",
	"many/rank0/array0":                      "[983040 294912 983040 210951 210951 983040 27584 1390201 3960 10097773 0]",
	"many/rank0/array1":                      "[983040 294912 983040 210951 210951 983040 27584 421505 8520 11722989 0]",
	"many/rank0/array2":                      "[983040 294912 983040 210951 210951 983040 27584 2926792 8760 13341965 0]",
	"many/rank0/array3":                      "[983040 294912 983040 210951 210951 983040 27584 2928472 6360 12370869 0]",
	"pencil/3x2-9x10x11/blocking":            "112366",
	"pencil/3x2-9x10x11/overlapped-hier":     "878758",
	"pencil/3x2-9x10x11/overlapped-pairwise": "295041",
	"pencil/8x8-128/blocking":                "36070008",
	"pencil/8x8-128/overlapped-hier":         "32739770",
	"pencil/8x8-128/overlapped-pairwise":     "18751760",
	"slab/Baseline/avg":                      "[4587520 1179648 4587520 661440 661440 4587520 0 25356055 0 41621143 0]",
	"slab/Baseline/max_total":                "42722172",
	"slab/Baseline/max_tuned":                "36955004",
	"slab/NEW-W3-bruck/avg":                  "[4587520 524288 4587520 661440 661440 4587520 321792 38279244 1601992 55812756 0]",
	"slab/NEW-W3-bruck/max_total":            "55812756",
	"slab/NEW-W3-bruck/max_tuned":            "50700948",
	"slab/NEW/avg":                           "[4587520 524288 4587520 661440 661440 4587520 416768 13187952 1735560 30950008 0]",
	"slab/NEW/max_total":                     "30950008",
	"slab/NEW/max_tuned":                     "25838200",
	"slab/NEW0/avg":                          "[4587520 524288 4587520 661440 661440 4587520 0 25356080 0 40965808 0]",
	"slab/NEW0/max_total":                    "40965808",
	"slab/NEW0/max_tuned":                    "35854000",
	"slab/TH/avg":                            "[4587520 2005401 4587520 661440 661440 4587520 416768 14113032 810480 32431121 0]",
	"slab/TH/max_total":                      "32431121",
	"slab/TH/max_tuned":                      "25838200",
	"tune/pencil/best":                       "37488229",
	"tune/pencil/point":                      "T=2 W=3 Px=1 Pz=1 Uy=1 Uz=1 Fy=16 Fp=16 Fu=16 Fx=16 Pr=8",
	"tune/slab/best":                         "182726560",
	"tune/slab/point":                        "T=8 W=2 Px=16 Pz=4 Uy=16 Uz=4 Fy=8 Fp=8 Fu=8 Fx=8",
}

func goldenValues(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	m := machine.UMDCluster()

	// Slab cost model: umd-cluster, p=16, N=128.
	const sp, sn = 16, 128
	g0, err := layout.NewGrid(sn, sn, sn, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	def := pfft.DefaultParams(g0)
	bruck := def
	bruck.W, bruck.Comm = 3, mpi.CommBruck
	slab := []struct {
		name string
		spec model.Spec
	}{
		{"NEW", model.Spec{Variant: pfft.NEW, Params: def}},
		{"NEW-W3-bruck", model.Spec{Variant: pfft.NEW, Params: bruck}},
		{"NEW0", model.Spec{Variant: pfft.NEW0, Params: def}},
		{"TH", model.Spec{Variant: pfft.TH, Params: def}},
		{"Baseline", model.Spec{Variant: pfft.Baseline}},
	}
	for _, s := range slab {
		res, err := model.SimulateCube(m, sp, sn, s.spec)
		if err != nil {
			t.Fatalf("slab %s: %v", s.name, err)
		}
		got["slab/"+s.name+"/max_total"] = fmt.Sprint(res.MaxTotal)
		got["slab/"+s.name+"/max_tuned"] = fmt.Sprint(res.MaxTuned)
		got["slab/"+s.name+"/avg"] = exact(res.Avg)
	}

	// Pencil simulators: 8×8 at N=128 and the uneven 3×2 9×10×11 grid.
	grids := []struct {
		name               string
		pr, pc, nx, ny, nz int
	}{
		{"8x8-128", 8, 8, 128, 128, 128},
		{"3x2-9x10x11", 3, 2, 9, 10, 11},
	}
	for _, gr := range grids {
		v, err := pencil.SimulateGrid(m, gr.pr, gr.pc, gr.nx, gr.ny, gr.nz)
		if err != nil {
			t.Fatalf("pencil %s blocking: %v", gr.name, err)
		}
		got["pencil/"+gr.name+"/blocking"] = fmt.Sprint(v)
		pg, err := pencil.NewGrid2D(gr.nx, gr.ny, gr.nz, gr.pr, gr.pc, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []mpi.CommAlg{mpi.CommPairwise, mpi.CommHier} {
			prm := pencil.DefaultParams2D(pg)
			prm.Comm = alg
			v, err := pencil.SimulateOverlappedGrid(m, gr.pr, gr.pc, gr.nx, gr.ny, gr.nz, prm)
			if err != nil {
				t.Fatalf("pencil %s overlapped %v: %v", gr.name, alg, err)
			}
			got["pencil/"+gr.name+"/overlapped-"+alg.String()] = fmt.Sprint(v)
		}
	}

	// Inter-array pipeline: 4 arrays of 64³ over 8 ranks, window 2.
	const mp, mn, arrays = 8, 64, 4
	w := sim.NewWorld(m, mp)
	ends := make([]int64, mp)
	var rank0 []pfft.Breakdown
	err = w.Run(func(c *sim.Comm) {
		g, err := layout.NewGrid(mn, mn, mn, mp, c.Rank())
		if err != nil {
			panic(err)
		}
		engines := make([]pfft.Engine, arrays)
		for i := range engines {
			engines[i] = model.NewEngine(m, g, c)
		}
		bs, err := pfft.RunMany(engines, 2)
		if err != nil {
			panic(err)
		}
		ends[c.Rank()] = c.Now()
		if c.Rank() == 0 {
			rank0 = bs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got["many/ends"] = fmt.Sprint(ends)
	for i, b := range rank0 {
		got[fmt.Sprintf("many/rank0/array%d", i)] = exact(b)
	}

	// Tuned optima (umd-cluster, 16 ranks, budget 60).
	prm, out, err := TuneNEW(m, 16, 256, 60)
	if err != nil {
		t.Fatal(err)
	}
	got["tune/slab/best"] = fmt.Sprint(out.BestTime())
	got["tune/slab/point"] = prm.String()
	pprm, pout, err := TunePencilNEW(m, 16, 128, 60)
	if err != nil {
		t.Fatal(err)
	}
	got["tune/pencil/best"] = fmt.Sprint(pout.BestTime())
	got["tune/pencil/point"] = pprm.String()
	return got
}

// exact renders every Breakdown field in nanoseconds (String rounds).
func exact(b pfft.Breakdown) string {
	return fmt.Sprint(append(b.Steps(), b.Total, b.Downgrades))
}

// TestGoldenVirtualTimes: the simulated virtual times and tuned points are
// pinned bit-for-bit.
func TestGoldenVirtualTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tuner searches")
	}
	got := goldenValues(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if os.Getenv("OFFT_GOLDEN_PRINT") != "" {
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	if len(got) != len(goldenVirtualTimes) {
		t.Errorf("%d golden values computed, %d pinned", len(got), len(goldenVirtualTimes))
	}
	for _, k := range keys {
		if want, ok := goldenVirtualTimes[k]; !ok {
			t.Errorf("%s: not pinned (got %s)", k, got[k])
		} else if got[k] != want {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], want)
		}
	}
}
