package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"offt"
	"offt/internal/fft"
	enginenet "offt/internal/mpi/net"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

const (
	netN     = 32
	netRanks = 4 // a 2×2 process grid
)

type netOp int

const (
	opForward netOp = iota
	opBackward
	opAlltoallv
	opStop
)

// netRank is the coordinator's handle on one rank goroutine. The
// coordinator writes work before sending a command and reads results after
// the rank answers on done; the channel operations order the accesses.
type netRank struct {
	g     pencil.Grid2D
	world *enginenet.World
	cmds  chan netOp
	done  chan error

	// Pristine scattered inputs, and the working copies the transforms
	// consume.
	in, spec, work []complex128
	out            []complex128 // plan-owned result of the last transform
	bd             pfft.Breakdown
	a2aMs          []float64
	stopped        bool // set by the rank once it has taken opStop
}

// netWorld is one four-rank net-engine world on loopback TCP, each rank a
// goroutine of this process running a pencil plan.
type netWorld struct {
	ranks []*netRank
	wg    sync.WaitGroup
}

// startNetWorld joins the ranks, builds their pencil plans and returns once
// every rank is ready for commands.
func startNetWorld(c cube) (*netWorld, error) {
	pr, pc, err := pencil.DefaultProcGrid(c.n, c.n, c.n, netRanks)
	if err != nil {
		return nil, err
	}
	// Rank 0 takes the live listener: closing and re-binding the port
	// would race the kernel handing it to an outbound connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nw := &netWorld{}
	for rank := 0; rank < netRanks; rank++ {
		g, err := pencil.NewGrid2D(c.n, c.n, c.n, pr, pc, rank)
		if err != nil {
			ln.Close()
			return nil, err
		}
		nr := &netRank{
			g: g, cmds: make(chan netOp), done: make(chan error, 1),
			in: make([]complex128, g.InSize()), spec: make([]complex128, g.OutSize()),
			work: make([]complex128, max(g.InSize(), g.OutSize())),
		}
		pencil.ScatterPencilInto(nr.in, c.x, g)
		pencil.ScatterSpectrumInto(nr.spec, c.spec, g)
		nw.ranks = append(nw.ranks, nr)
	}
	joined := make(chan error, netRanks)
	for rank, nr := range nw.ranks {
		nw.wg.Add(1)
		go func() {
			defer nw.wg.Done()
			cfg := enginenet.Config{
				Rank: rank, Size: netRanks, Coord: ln.Addr().String(), World: "perfbench",
				JoinTimeout: 30 * time.Second,
			}
			if rank == 0 {
				cfg.CoordListener = ln
			}
			w, err := enginenet.Join(cfg)
			if err != nil {
				joined <- err
				return
			}
			defer w.Close()
			nr.world = w
			joined <- nil
			err = w.Run(func(comm *enginenet.Comm) { nr.serve(comm) })
			if err == nil || nr.stopped {
				return
			}
			// The world failed mid-command: answer that command (unless
			// its answer is already buffered) and every later one with the
			// failure until the coordinator stops.
			select {
			case nr.done <- err:
			default:
			}
			for op := range nr.cmds {
				if op == opStop {
					return
				}
				nr.done <- err
			}
		}()
	}
	var errs []error
	for range nw.ranks {
		errs = append(errs, <-joined)
	}
	if err := errors.Join(errs...); err != nil {
		nw.abort()
		return nil, fmt.Errorf("net join: %w", err)
	}
	// Each rank reports its plan construction on done.
	for _, nr := range nw.ranks {
		if err := <-nr.done; err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		nw.stop()
		return nil, fmt.Errorf("pencil plan: %w", err)
	}
	return nw, nil
}

// serve is one rank's body: build the plan, then execute commands until
// opStop.
func (nr *netRank) serve(c *enginenet.Comm) {
	plan, err := pencil.NewPlan(c, nr.g, pfft.NEW, pencil.Params2D{}, fft.Estimate)
	nr.done <- err
	if err != nil {
		<-nr.cmds // wait for the coordinator's stop
		return
	}
	defer plan.Close()
	for op := range nr.cmds {
		switch op {
		case opForward:
			copy(nr.work, nr.in)
			nr.out, nr.bd, err = plan.Forward(nr.work[:nr.g.InSize()])
		case opBackward:
			copy(nr.work, nr.spec)
			nr.out, nr.bd, err = plan.Backward(nr.work[:nr.g.OutSize()])
		case opAlltoallv:
			counts := make([]int, netRanks)
			for i := range counts {
				counts[i] = nr.g.InSize() / netRanks
			}
			nr.a2aMs = timeAlltoallv(c, counts, counts)
			err = nil
		case opStop:
			nr.stopped = true
			return
		}
		nr.done <- err
	}
}

// do runs one command on every rank and returns the wall time from the
// first send to the last answer.
func (nw *netWorld) do(op netOp) (time.Duration, error) {
	t0 := time.Now()
	for _, nr := range nw.ranks {
		nr.cmds <- op
	}
	var errs []error
	for _, nr := range nw.ranks {
		errs = append(errs, <-nr.done)
	}
	return time.Since(t0), errors.Join(errs...)
}

// stop ends every rank's body and waits for the worlds to close.
func (nw *netWorld) stop() {
	for _, nr := range nw.ranks {
		nr.cmds <- opStop
	}
	nw.wg.Wait()
}

// abort tears down a world whose join failed: joined ranks are failed so
// their bodies return, the rest already exited.
func (nw *netWorld) abort() {
	for _, nr := range nw.ranks {
		if nr.world != nil {
			nr.world.Fail(errors.New("perfbench: join aborted"))
		}
		close(nr.cmds)
	}
	nw.wg.Wait()
}

// transform runs one forward or backward transform and checks the gathered
// result against the oracle. The returned duration excludes the check.
func (nw *netWorld) transform(c cube, full []complex128, forward bool) (time.Duration, error) {
	op := opBackward
	if forward {
		op = opForward
	}
	d, err := nw.do(op)
	if err != nil {
		return d, err
	}
	for _, nr := range nw.ranks {
		if forward {
			pencil.GatherPencilInto(full, nr.out, nr.g)
		} else {
			pencil.GatherInputInto(full, nr.out, nr.g)
		}
	}
	if forward {
		return d, c.checkForward(full)
	}
	return d, c.checkBackward(full)
}

func (nw *netWorld) sent() (sent, retransmits, dedups int64) {
	for _, nr := range nw.ranks {
		h := nr.world.Health()
		sent += h.Sent
		retransmits += h.Retransmits
		dedups += h.Dedups
	}
	return
}

// runNetPencil is net-pencil-32: a 32³ pencil transform on a 2×2 grid,
// forward then backward, with pencil.NewPlan on four internal/mpi/net ranks
// over loopback TCP. It is exchange-bound.
func runNetPencil(r *run) error {
	r.noteShape(netN, netRanks)
	c := newCube(netN, r.seed, 0)
	full := make([]complex128, c.elements)

	var nw *netWorld
	stop, err := r.setups(func() (func(), error) {
		var err error
		if nw, err = startNetWorld(c); err != nil {
			return nil, err
		}
		if _, err = nw.transform(c, full, true); !r.check(err) {
			nw.stop()
			return nil, err
		}
		return nw.stop, nil
	})
	if err != nil {
		return err
	}
	defer stop()

	err = r.untracedThenTraced(func(d time.Duration, traced bool) (phase, error) {
		var p phase
		var steps offt.Breakdown
		var slowestMs float64
		sent0, retx0, dedup0 := nw.sent()
		start := time.Now()
		var transforms int
		for time.Since(start) < d {
			// One operation is the forward-then-backward round trip.
			var trip time.Duration
			ok := true
			for _, forward := range []bool{true, false} {
				lat, err := nw.transform(c, full, forward)
				trip += lat
				if !r.check(err) {
					if !errors.Is(err, errWrongOutput) {
						p.wall = time.Since(start)
						return p, err
					}
					ok = false
				}
				transforms++
				if traced {
					var slowest int64
					for _, nr := range nw.ranks {
						steps.Add(nr.bd)
						slowest = max(slowest, nr.bd.Total)
					}
					slowestMs += float64(slowest) / 1e6
				}
			}
			if ok {
				p.add(trip)
			}
		}
		p.wall = time.Since(start)
		if traced {
			n := transforms
			sent1, retx1, dedup1 := nw.sent()
			steps.Scale(netRanks)
			recordSteps(r, "pencil", steps, n)
			r.set("mpi.msgs_per_op", float64(sent1-sent0)/float64(n), n)
			r.set("mpi.bytes_per_op", pencilExchangeBytes(nw.ranks[0].g), n)
			r.set("mpi.retransmits", float64(retx1-retx0), n)
			r.set("mpi.dedups", float64(dedup1-dedup0), n)
			r.set("budget.coverage", slowestMs/(mean(p.latMs)*float64(len(p.latMs))), len(p.latMs))
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mib"] = []float64{rss}
	if !r.trace {
		return failIfWrong(r, nil)
	}
	if _, err := nw.do(opAlltoallv); err != nil {
		return err
	}
	r.set("mpi.alltoallv_ms", quantile(nw.ranks[0].a2aMs, 0.5), probeReps)
	g := nw.ranks[0].g
	probeRows(r, netN, g.InSize()/(netN*netN))
	probeHostCopy(r, c.elements)
	return failIfWrong(r, nil)
}

// pencilExchangeBytes is the computed payload one pencil transform moves
// between distinct ranks: each rank keeps 1/pc of its input in the row
// exchange and 1/pr of its mid pencil in the column exchange.
func pencilExchangeBytes(g pencil.Grid2D) float64 {
	perRank := float64(g.InSize())*float64(g.PC-1)/float64(g.PC) +
		float64(g.MidSize())*float64(g.PR-1)/float64(g.PR)
	return 16 * perRank * float64(g.P())
}
