package pfft

import (
	"strings"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
)

// TestPlanTraceRecordsAndPreservesResult: a WithTrace plan records every
// pipeline step and still produces the untraced result.
func TestPlanTraceRecordsAndPreservesResult(t *testing.T) {
	nx, p := 12, 3
	full := randCube(nx, nx, nx, 31)
	want := serialReference(full, nx, nx, nx)

	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	traces := make([][]StepEvent, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, nx, nx, p, c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := NewPlan(c, g, NEW, DefaultParams(g), fft.Estimate, WithTrace())
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		out, _, err := pl.Forward(layout.ScatterX(full, g))
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		traces[c.Rank()] = append([]StepEvent(nil), pl.Trace()...)
	})
	if err != nil {
		t.Fatal(err)
	}
	g0, _ := layout.NewGrid(nx, nx, nx, p, 0)
	got := layout.GatherY(outs, nx, nx, nx, p, OutputFast(NEW, g0))
	if e := maxErr(got, want); e > tol {
		t.Fatalf("traced run changed the result: %g", e)
	}

	ev := traces[0]
	if len(ev) == 0 {
		t.Fatal("no events recorded")
	}
	// Every pipeline step must appear, intervals must be well-formed and
	// non-decreasing in start order per append sequence.
	seen := map[string]bool{}
	for i, e := range ev {
		seen[e.Name] = true
		if e.End < e.Start {
			t.Errorf("event %d (%s): end before start", i, e.Name)
		}
	}
	for _, name := range []string{"FFTz", "Transpose", "FFTy", "Pack", "Ialltoall", "Wait", "Unpack", "FFTx"} {
		if !seen[name] {
			t.Errorf("missing %s event", name)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	events := []StepEvent{
		{Name: "FFTy", Start: 0, End: 50, Tile: 0},
		{Name: "Wait", Start: 50, End: 100, Tile: -1},
		{Name: "FFTy", Start: 100, End: 150, Tile: 1},
	}
	var sb strings.Builder
	RenderTimeline(&sb, events, 60)
	out := sb.String()
	if !strings.Contains(out, "FFTy") || !strings.Contains(out, "Wait") {
		t.Errorf("timeline missing rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("timeline missing tile marks:\n%s", out)
	}
	// Degenerate inputs must not panic.
	RenderTimeline(&sb, nil, 60)
	RenderTimeline(&sb, events, 5)
}
