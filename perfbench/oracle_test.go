package main

import (
	"errors"
	"math"
	"testing"

	"offt"
)

func TestCubeOracleCatchesPerturbedOutput(t *testing.T) {
	c := newCube(8, 3, 0)
	back := make([]complex128, c.elements)
	for i, v := range c.x {
		back[i] = v * complex(float64(c.elements), 0)
	}
	if err := c.checkForward(c.spec); err != nil {
		t.Fatalf("exact spectrum rejected: %v", err)
	}
	if err := c.checkBackward(back); err != nil {
		t.Fatalf("exact round trip rejected: %v", err)
	}

	for name, perturb := range map[string]func([]complex128){
		"one element": func(x []complex128) { x[len(x)/3] += complex(1e-6*cmplxAbsMax(x), 0) },
		"NaN":         func(x []complex128) { x[0] = complex(math.NaN(), 0) },
		"truncated":   nil,
	} {
		for dir, out := range map[string][]complex128{"forward": c.spec, "backward": back} {
			got := append([]complex128(nil), out...)
			if perturb == nil {
				got = got[:len(got)-1]
			} else {
				perturb(got)
			}
			check := c.checkForward
			if dir == "backward" {
				check = c.checkBackward
			}
			if err := check(got); !errors.Is(err, errWrongOutput) {
				t.Errorf("%s %s: got %v, want a wrong-output error", dir, name, err)
			}
		}
	}
}

func cmplxAbsMax(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Hypot(real(v), imag(v)))
	}
	return m
}

func TestCubeSeeds(t *testing.T) {
	a, b := newCube(4, 7, 0), newCube(4, 7, 0)
	for i := range a.x {
		if a.x[i] != b.x[i] {
			t.Fatal("the same seed drew different inputs")
		}
	}
	if newCube(4, 8, 0).x[0] == a.x[0] || newCube(4, 7, 1).x[0] == a.x[0] {
		t.Fatal("another seed or stream drew the same input")
	}
}

func TestTuneOracleCatchesPerturbedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full tune")
	}
	o, err := newTuneOracle()
	if err != nil {
		t.Fatal(err)
	}
	op, err := tuneOnce()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(op); err != nil {
		t.Fatalf("genuine tune rejected: %v", err)
	}
	if err := o.check(op); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}

	def, err := offt.DefaultParams(tuneSlabN, tuneSlabN, tuneSlabN, tuneRanks)
	if err != nil {
		t.Fatal(err)
	}
	swapped := op
	swapped.slabPrm = def
	if err := o.check(swapped); !errors.Is(err, errWrongOutput) {
		t.Errorf("tuned point swapped for the default: got %v, want a wrong-output error", err)
	}
	infeasible := op
	infeasible.pencilPrm.Pr = tuneRanks + 1
	if err := o.check(infeasible); !errors.Is(err, errWrongOutput) {
		t.Errorf("infeasible pencil point: got %v, want a wrong-output error", err)
	}
}
