package pfft

import "offt/internal/mpi"

// Stages is one pipelined exchange phase's per-tile work, supplied to
// Pipeline.Run. slot is the communication buffer set the tile uses (tile
// mod W+1); window holds the in-flight requests a stage progresses with
// MPI_Test between its kernels (Algorithms 2–3). Implementations are
// plan-owned structs, so handing one to Run allocates nothing.
type Stages interface {
	// Front computes tile and packs it into slot's send buffer.
	Front(tile, slot int, window []mpi.Request)
	// Post starts tile's non-blocking all-to-all from slot.
	Post(tile, slot int) mpi.Request
	// Back unpacks tile from slot's receive buffer and computes on it.
	Back(tile, slot int, window []mpi.Request)
	// Acct returns the breakdown charged with tile's exchange time
	// (Ialltoall, Wait) and with a downgrade the tile triggers.
	Acct(tile int) *Breakdown
}

// Pipeline is the one Algorithm-1 driver under every transform: the slab
// forward and backward directions, both pencil exchange phases, the
// simulated pencil transform and RunMany's arrays-as-tiles. It owns the
// request window, the fault monitor and the exchange's step events;
// callers supply only the per-tile Stages. A Pipeline is reusable — plans
// own one per direction — so the steady state allocates nothing.
type Pipeline struct {
	// Rec receives the exchange's step events (Ialltoall, Wait, Alltoall,
	// Downgrade); nil records nothing.
	Rec *Recorder

	reqs []mpi.Request
	mon  faultMonitor
	// postFirst posts tile i before waiting on tile i−w instead of after,
	// so w+1 exchanges are briefly in flight and tiles use w+2 slots. It
	// is the inter-array order of RunMany, where every array owns its
	// buffers.
	postFirst bool
}

// Run drives k tiles through st on c with at most w all-to-alls in flight:
// iteration i packs tile i, waits for tile i−w, posts tile i and unpacks
// tile i−w, with tile i in slot i mod (w+1).
//
// w = 0 selects the blocking mode: each tile runs Front, then its
// all-to-all as post+Wait (one Alltoall span), then Back, all in slot 0
// with nothing to poll.
//
// A tile wait that misses its soft deadline, or persistent transport
// retransmission pressure, downgrades the rest of the run to the blocking
// mode (see drain). Both modes issue exactly one all-to-all per tile in
// tile order, so collective sequence numbers stay aligned with ranks that
// did not downgrade and the result is bit-identical.
func (pl *Pipeline) Run(c mpi.Comm, st Stages, k, w int) {
	if w == 0 {
		for i := 0; i < k; i++ {
			st.Front(i, 0, nil)
			pl.blocking(c, st, i, 0)
		}
		return
	}
	if cap(pl.reqs) < k {
		pl.reqs = make([]mpi.Request, k)
	}
	reqs := pl.reqs[:k]
	clear(reqs)
	pl.mon.init(c)
	slots := w + 1
	if pl.postFirst {
		slots++
	}
	for i := 0; i < k+w; i++ {
		if i < k {
			st.Front(i, i%slots, reqs[max(0, i-w):i])
			if pl.postFirst {
				pl.post(c, st, i, i%slots)
			}
		}
		if j := i - w; j >= 0 {
			t := c.Now()
			ok := pl.mon.waitTile(c, reqs[j])
			EndStep(c, pl.Rec, "Wait", j, t, &st.Acct(j).Wait)
			if !ok {
				pl.drain(c, st, k, i-w, i, slots)
				return
			}
		}
		if i < k && !pl.postFirst {
			pl.post(c, st, i, i%slots)
		}
		if j := i - w; j >= 0 {
			st.Back(j, j%slots, reqs[j+1:min(i+1, k)])
		}
	}
}

// post starts tile i's exchange, timed as an Ialltoall span.
func (pl *Pipeline) post(c mpi.Comm, st Stages, i, slot int) {
	t := c.Now()
	pl.reqs[i] = st.Post(i, slot)
	EndStep(c, pl.Rec, "Ialltoall", i, t, &st.Acct(i).Ialltoall)
}

// blocking runs tile i's all-to-all as post+Wait, timed as one Alltoall
// span under Wait, followed by its Back stage.
func (pl *Pipeline) blocking(c mpi.Comm, st Stages, i, slot int) {
	t := c.Now()
	pl.mon.wait(c, st.Post(i, slot))
	EndStep(c, pl.Rec, "Alltoall", i, t, &st.Acct(i).Wait)
	st.Back(i, slot, nil)
}

// drain finishes a run in the blocking mode after the pipeline gave up at
// iteration i, waiting on tile j = i−w. Tiles below j are done; tiles from
// j up to i (through i when posting first) are posted but not unpacked;
// tile i is packed; later tiles are untouched. Plain Wait is safe: soft
// deadlines leave requests valid and the self-healing transport still
// converges.
func (pl *Pipeline) drain(c mpi.Comm, st Stages, k, j, i, slots int) {
	st.Acct(j).Downgrades++
	pl.Rec.Instant("Downgrade", c.Now(), j)
	posted := min(i, k)
	if pl.postFirst {
		posted = min(i+1, k)
	}
	for ; j < posted; j++ {
		t := c.Now()
		pl.mon.wait(c, pl.reqs[j])
		EndStep(c, pl.Rec, "Wait", j, t, &st.Acct(j).Wait)
		st.Back(j, j%slots, nil)
	}
	for ; j < k; j++ {
		if j > i {
			st.Front(j, j%slots, nil)
		}
		pl.blocking(c, st, j, j%slots)
	}
}

// EndStep closes the step that began at t: it charges the elapsed time to
// *acc and records the interval under name.
func EndStep(c mpi.Comm, rec *Recorder, name string, tile int, t int64, acc *int64) {
	now := c.Now()
	*acc += now - t
	rec.Add(name, t, now, tile)
}

// Poll issues n MPI_Test calls over window, charging the time to b.Test
// and recording the burst as one Test event. Stages call it between
// kernels to progress in-flight exchanges; an empty window or n ≤ 0 is a
// no-op.
func Poll(c mpi.Comm, window []mpi.Request, n int, b *Breakdown, rec *Recorder) {
	if len(window) == 0 || n <= 0 {
		return
	}
	t := c.Now()
	for j := 0; j < n; j++ {
		c.Test(window...)
	}
	now := c.Now()
	b.Test += now - t
	rec.testBurst(t, now)
}

// testsDue spreads f Test calls evenly over n units: it returns how many
// are due right after unit u.
func testsDue(f, u, n int) int {
	if n <= 0 {
		return 0
	}
	return f*(u+1)/n - f*u/n
}
