package layout

import "fmt"

// ScatterX extracts this rank's input x-slab (x-y-z layout) from a full
// Nx×Ny×Nz array in x-y-z layout. It is the distribution step applications
// and tests use to feed the parallel transform.
func ScatterX(full []complex128, g Grid) []complex128 {
	slab := make([]complex128, g.InSize())
	ScatterXInto(slab, full, g)
	return slab
}

// ScatterXInto is ScatterX into a caller-provided slab of length
// g.InSize(), so steady-state callers re-feed a reusable buffer instead of
// allocating per transform.
func ScatterXInto(slab, full []complex128, g Grid) {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: ScatterX: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	n := g.InSize()
	if len(slab) != n {
		panic(fmt.Sprintf("layout: ScatterX: slab length %d != %d", len(slab), n))
	}
	x0 := g.X0()
	copy(slab, full[x0*g.Ny*g.Nz:x0*g.Ny*g.Nz+n])
}

// GatherY assembles a full Nx×Ny×Nz array in x-y-z layout from the per-rank
// output y-slabs produced by the parallel forward transform. fast selects
// the y-z-x output layout (§3.5 path) instead of z-y-x. slabs[r] must be
// rank r's output slab.
func GatherY(slabs [][]complex128, nx, ny, nz, p int, fast bool) []complex128 {
	full := make([]complex128, nx*ny*nz)
	GatherYInto(full, slabs, nx, ny, nz, p, fast)
	return full
}

// assembleTileX/Z are the cache-block edges for the x/z-tiled transposes
// below. Both the gather and scatter walk a strided corner-turn between the
// slab layout (x contiguous) and the full x-y-z array (z contiguous). The
// x edge stays small because consecutive x values land Ny·Nz elements apart
// in the full array (a power-of-two stride that aliases L1 sets); the z run
// stays long so the contiguous side streams whole cache lines.
const (
	assembleTileX = 8
	assembleTileZ = 64
)

// GatherYInto is GatherY into a caller-provided full array of length
// nx·ny·nz (every element is overwritten).
func GatherYInto(full []complex128, slabs [][]complex128, nx, ny, nz, p int, fast bool) {
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			panic(err)
		}
		GatherYRankInto(full, slabs[r], g, fast)
	}
}

// GatherYRankInto writes rank g.Rank's output y-slab into its y-planes of
// the full array (length Nx·Ny·Nz, x-y-z layout). Ranks write disjoint
// elements, so all of them may gather into one array concurrently.
func GatherYRankInto(full, slab []complex128, g Grid, fast bool) {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	if len(full) != nx*ny*nz {
		panic(fmt.Sprintf("layout: GatherY: full array length %d != %d", len(full), nx*ny*nz))
	}
	if len(slab) < g.OutSize() {
		panic(fmt.Sprintf("layout: GatherY: rank %d slab length %d < %d", g.Rank, len(slab), g.OutSize()))
	}
	y0, yc := g.Y0(), g.YC()
	for ly := 0; ly < yc; ly++ {
		y := y0 + ly
		for xb := 0; xb < nx; xb += assembleTileX {
			x1 := min(xb+assembleTileX, nx)
			for zb := 0; zb < nz; zb += assembleTileZ {
				z1 := min(zb+assembleTileZ, nz)
				for x := xb; x < x1; x++ {
					fb := (x*ny + y) * nz
					for z := zb; z < z1; z++ {
						full[fb+z] = slab[g.RowXBase(fast, ly, z)+x]
					}
				}
			}
		}
	}
}

// ScatterY splits a full array (x-y-z layout) into per-rank y-slabs in the
// post-forward layout (z-y-x, or y-z-x when fast). It is the inverse of
// GatherY and feeds the parallel backward transform.
func ScatterY(full []complex128, g Grid, fast bool) []complex128 {
	slab := make([]complex128, g.OutSize())
	ScatterYInto(slab, full, g, fast)
	return slab
}

// ScatterYInto is ScatterY into a caller-provided slab of length
// g.OutSize().
func ScatterYInto(slab, full []complex128, g Grid, fast bool) {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: ScatterY: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	if len(slab) != g.OutSize() {
		panic(fmt.Sprintf("layout: ScatterY: slab length %d != %d", len(slab), g.OutSize()))
	}
	y0, yc := g.Y0(), g.YC()
	for ly := 0; ly < yc; ly++ {
		y := y0 + ly
		for xb := 0; xb < g.Nx; xb += assembleTileX {
			x1 := min(xb+assembleTileX, g.Nx)
			for zb := 0; zb < g.Nz; zb += assembleTileZ {
				z1 := min(zb+assembleTileZ, g.Nz)
				for x := xb; x < x1; x++ {
					fb := (x*g.Ny + y) * g.Nz
					for z := zb; z < z1; z++ {
						slab[g.RowXBase(fast, ly, z)+x] = full[fb+z]
					}
				}
			}
		}
	}
}

// GatherX assembles a full array in x-y-z layout from per-rank input
// x-slabs. It is the inverse of ScatterX.
func GatherX(slabs [][]complex128, nx, ny, nz, p int) []complex128 {
	full := make([]complex128, nx*ny*nz)
	GatherXInto(full, slabs, nx, ny, nz, p)
	return full
}

// GatherXInto is GatherX into a caller-provided full array of length
// nx·ny·nz (every element is overwritten).
func GatherXInto(full []complex128, slabs [][]complex128, nx, ny, nz, p int) {
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			panic(err)
		}
		GatherXRankInto(full, slabs[r], g)
	}
}

// GatherXRankInto copies rank g.Rank's input x-slab into its contiguous
// x-planes of the full array (length Nx·Ny·Nz, x-y-z layout). Ranks write
// disjoint ranges, so all of them may gather into one array concurrently.
func GatherXRankInto(full, slab []complex128, g Grid) {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: GatherX: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	off, n := g.X0()*g.Ny*g.Nz, g.InSize()
	copy(full[off:off+n], slab[:n])
}
