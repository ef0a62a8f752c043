package pfft

import (
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// OutputFast reports whether a variant produces the y-z-x fast-path output
// layout (§3.5) instead of z-y-x for the given geometry. Pass this to
// layout.GatherY / layout.ScatterY when reassembling results.
func OutputFast(v Variant, g layout.Grid) bool {
	return g.FastPathOK() && (v == NEW || v == NEW0)
}

// Forward3D executes a distributed forward 3-D FFT on this rank: slab is
// the rank's input x-slab in x-y-z layout (consumed), and the returned
// slice is the rank's output y-slab (layout per OutputFast). Every rank of
// the communicator must call Forward3D with identical variant/parameters.
func Forward3D(c mpi.Comm, g layout.Grid, slab []complex128, v Variant, prm Params, flag fft.Flag) ([]complex128, Breakdown, error) {
	e, err := NewRealEngine(g, c, slab, fft.Forward, flag)
	if err != nil {
		return nil, Breakdown{}, err
	}
	b, err := Run(e, v, prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return e.Output(), b, nil
}

// ForwardTH3D is Forward3D for the TH comparison model.
func ForwardTH3D(c mpi.Comm, g layout.Grid, slab []complex128, prm THParams, flag fft.Flag) ([]complex128, Breakdown, error) {
	if err := prm.Validate(g); err != nil {
		return nil, Breakdown{}, err
	}
	e, err := NewRealEngine(g, c, slab, fft.Forward, flag)
	if err != nil {
		return nil, Breakdown{}, err
	}
	b, err := Run(e, TH, Params{T: prm.T, W: prm.W, Fy: prm.F})
	if err != nil {
		return nil, Breakdown{}, err
	}
	return e.Output(), b, nil
}
