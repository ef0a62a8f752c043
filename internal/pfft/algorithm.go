package pfft

import (
	"offt/internal/layout"
	"offt/internal/mpi"
)

// fwdStages are the forward slab transform's pipeline stages over an
// Engine: loop-tiled FFTy+Pack in front (Algorithm 2) and Unpack+FFTx
// behind (Algorithm 3), with the Fy/Fp/Fu/Fx Test calls spread over the
// sub-tiles. The same stages drive the real engine and the cost-model
// engine, so simulation runs the control flow the real transform runs.
type fwdStages struct {
	e    Engine
	c    mpi.Comm
	g    layout.Grid
	prm  Params
	tl   layout.Tiling
	fast bool
	b    Breakdown
	rec  *Recorder
}

// Front is Algorithm 2: FFTy and Pack over one communication tile in
// Px×Pz sub-tiles, with Fy Test calls spread across the FFTy portions and
// Fp across the Pack portions.
func (s *fwdStages) Front(tile, slot int, window []mpi.Request) {
	e, c, prm := s.e, s.c, s.prm
	zt0, ztl := s.tl.TileStart(tile), s.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Pz) * layout.NumSubTiles(s.g.XC(), prm.Px)
	u := 0
	layout.SubTiles(ztl, prm.Pz, func(z0, z1 int) {
		layout.SubTiles(s.g.XC(), prm.Px, func(x0, x1 int) {
			t := c.Now()
			e.FFTySub(s.fast, zt0, z0, z1, x0, x1)
			EndStep(c, s.rec, "FFTy", tile, t, &s.b.FFTy)
			Poll(c, window, testsDue(prm.Fy, u, nSub), &s.b, s.rec)
			t = c.Now()
			e.PackSub(slot, s.fast, zt0, ztl, z0, z1, x0, x1)
			EndStep(c, s.rec, "Pack", tile, t, &s.b.Pack)
			Poll(c, window, testsDue(prm.Fp, u, nSub), &s.b, s.rec)
			u++
		})
	})
}

// Post starts the tile's non-blocking all-to-all.
func (s *fwdStages) Post(tile, slot int) mpi.Request {
	return s.e.PostTile(slot, s.tl.TileLen(tile))
}

// Back is Algorithm 3: Unpack and FFTx over one communication tile in
// Uy×Uz sub-tiles, with Fu Test calls during Unpack portions and Fx
// during FFTx portions.
func (s *fwdStages) Back(tile, slot int, window []mpi.Request) {
	e, c, prm := s.e, s.c, s.prm
	zt0, ztl := s.tl.TileStart(tile), s.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Uz) * layout.NumSubTiles(s.g.YC(), prm.Uy)
	u := 0
	layout.SubTiles(ztl, prm.Uz, func(z0, z1 int) {
		layout.SubTiles(s.g.YC(), prm.Uy, func(y0, y1 int) {
			t := c.Now()
			e.UnpackSub(slot, s.fast, zt0, ztl, z0, z1, y0, y1)
			EndStep(c, s.rec, "Unpack", tile, t, &s.b.Unpack)
			Poll(c, window, testsDue(prm.Fu, u, nSub), &s.b, s.rec)
			t = c.Now()
			e.FFTxSub(s.fast, zt0, z0, z1, y0, y1)
			EndStep(c, s.rec, "FFTx", tile, t, &s.b.FFTx)
			Poll(c, window, testsDue(prm.Fx, u, nSub), &s.b, s.rec)
			u++
		})
	})
}

// Acct charges every tile to the one transform's breakdown.
func (s *fwdStages) Acct(int) *Breakdown { return &s.b }
