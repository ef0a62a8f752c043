package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"offt/internal/fft"
)

// relTol bounds the relative max error of a transform against the serial
// reference (and of a round trip against the scaled input). Correct outputs
// sit near 1e-15 at these sizes; a single flipped element is far above it.
const relTol = 1e-9

// cube is one seeded input and its serial reference spectrum, both in x-y-z
// layout. They are generated before any timing starts.
type cube struct {
	n        int
	x, spec  []complex128
	elements int
}

// newCube draws an n³ input from (seed, stream) and computes its reference
// spectrum with the serial internal/fft 3-D transform.
func newCube(n int, seed int64, stream uint64) cube {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	c := cube{n: n, elements: n * n * n}
	c.x = make([]complex128, c.elements)
	for i := range c.x {
		c.x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	c.spec = append([]complex128(nil), c.x...)
	fft.NewPlan3D(n, n, n, fft.Forward).Transform(c.spec)
	return c
}

// checkForward compares a forward result with the reference spectrum.
func (c cube) checkForward(out []complex128) error {
	return relErr("forward", out, c.spec, 1)
}

// checkBackward compares the inverse of the reference spectrum with the
// input scaled by N³ (the transforms are unnormalized).
func (c cube) checkBackward(out []complex128) error {
	return relErr("backward", out, c.x, float64(c.elements))
}

func relErr(what string, got, want []complex128, scale float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %s has %d elements, want %d", errWrongOutput, what, len(got), len(want))
	}
	// Squared magnitudes keep the scan cheap next to the transform; a NaN
	// anywhere poisons maxErr so the comparison below fails.
	var maxErr, maxRef float64
	for i, w := range want {
		w *= complex(scale, 0)
		d := got[i] - w
		if e := real(d)*real(d) + imag(d)*imag(d); e > maxErr || e != e {
			maxErr = e
		}
		if a := real(w)*real(w) + imag(w)*imag(w); a > maxRef {
			maxRef = a
		}
	}
	if rel := math.Sqrt(maxErr / maxRef); !(rel <= relTol) {
		return fmt.Errorf("%w: %s relative max error %.3g exceeds %g", errWrongOutput, what, rel, relTol)
	}
	return nil
}
