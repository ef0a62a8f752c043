package sched

import (
	"fmt"
	"math"
	"testing"

	"offt/internal/mpi"
)

// fakeWorld is an in-memory transport for p ranks driven from a single
// goroutine. It counts every Send/TryClaim/Release and audits payload
// ownership: each claimed payload must be released exactly once, as the
// very slice TryClaim returned, and is poisoned with NaNs on release so a
// schedule that reads it afterwards corrupts its output.
type fakeWorld struct {
	t     *testing.T
	p     int
	ns    int
	boxes map[[3]int][][]complex128 // (dst, src, tag) → queued payloads
	state map[*complex128]int       // payload → claim state

	sends, claims, releases int
}

// Payload claim states.
const (
	payloadQueued = iota
	payloadClaimed
	payloadReleased
)

func newFakeWorld(t *testing.T, p, nodeSize int) *fakeWorld {
	return &fakeWorld{t: t, p: p, ns: nodeSize, boxes: map[[3]int][][]complex128{}, state: map[*complex128]int{}}
}

// fakePort is one rank's view of a fakeWorld.
type fakePort struct {
	w       *fakeWorld
	rank    int
	seq     int
	scratch []complex128
}

func (f *fakePort) Rank() int     { return f.rank }
func (f *fakePort) Size() int     { return f.w.p }
func (f *fakePort) NodeSize() int { return f.w.ns }

func (f *fakePort) NextTags(n int) int {
	t := f.seq
	f.seq += n
	return t
}

func (f *fakePort) Send(dst, tag int, data []complex128) {
	w := f.w
	if len(data) == 0 {
		w.t.Fatalf("rank %d sent an empty payload to %d (tag %d)", f.rank, dst, tag)
	}
	buf := make([]complex128, len(data))
	copy(buf, data)
	w.state[&buf[0]] = payloadQueued
	k := [3]int{dst, f.rank, tag}
	w.boxes[k] = append(w.boxes[k], buf)
	w.sends++
}

func (f *fakePort) TryClaim(src, tag int) ([]complex128, bool) {
	w := f.w
	k := [3]int{f.rank, src, tag}
	q := w.boxes[k]
	if len(q) == 0 {
		return nil, false
	}
	data := q[0]
	if len(q) == 1 {
		delete(w.boxes, k)
	} else {
		w.boxes[k] = q[1:]
	}
	w.state[&data[0]] = payloadClaimed
	w.claims++
	return data, true
}

func (f *fakePort) Queued(src, tag int) bool {
	return len(f.w.boxes[[3]int{f.rank, src, tag}]) > 0
}

func (f *fakePort) Release(data []complex128) {
	w := f.w
	w.releases++
	if len(data) == 0 {
		w.t.Errorf("rank %d released an empty slice", f.rank)
		return
	}
	switch st, ok := w.state[&data[0]]; {
	case !ok:
		w.t.Errorf("rank %d released a slice no TryClaim returned", f.rank)
		return
	case st == payloadQueued:
		w.t.Errorf("rank %d released an unclaimed payload", f.rank)
		return
	case st == payloadReleased:
		w.t.Errorf("rank %d released a payload twice", f.rank)
		return
	}
	if len(data) != cap(data) {
		w.t.Errorf("rank %d released a sub-slice (len %d of %d)", f.rank, len(data), cap(data))
	}
	w.state[&data[0]] = payloadReleased
	nan := complex(math.NaN(), math.NaN())
	for i := range data[:cap(data)] {
		data[:cap(data)][i] = nan
	}
}

func (f *fakePort) Scratch(n int) []complex128 {
	if cap(f.scratch) < n {
		f.scratch = make([]complex128, n)
	}
	return f.scratch[:n]
}

var _ Port = (*fakePort)(nil)

// blockValue is element i of the block rank src sends to rank dst: unique
// per (src, dst, i), so a misrouted or stale element cannot pass.
func blockValue(src, dst, i int) complex128 {
	return complex(float64(src*1000+dst), float64(i)+0.25)
}

// runExchange posts one all-to-all under ex on every rank of a fakeWorld,
// drives every request to completion round-robin, audits the payload
// ownership, and returns each rank's receive buffer.
func runExchange(t *testing.T, ex mpi.Exchange, counts [][]int) ([][]complex128, *fakeWorld) {
	t.Helper()
	p := len(counts)
	w := newFakeWorld(t, p, 2)
	reqs := make([]Request, p)
	recvs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		sendCounts := counts[r]
		recvCounts := make([]int, p)
		for s := 0; s < p; s++ {
			recvCounts[s] = counts[s][r]
		}
		var send []complex128
		for d := 0; d < p; d++ {
			for i := 0; i < sendCounts[d]; i++ {
				send = append(send, blockValue(r, d, i))
			}
		}
		n := 0
		for _, c := range recvCounts {
			n += c
		}
		recvs[r] = make([]complex128, n)
		reqs[r] = Post(&fakePort{w: w, rank: r}, ex, send, sendCounts, recvs[r], recvCounts)
	}
	done := make([]bool, p)
	for sweep := 0; ; sweep++ {
		if sweep > 10*p+10 {
			t.Fatalf("%v: no completion after %d sweeps", ex.Alg, sweep)
		}
		all := true
		for r, req := range reqs {
			if !done[r] {
				done[r] = req.Drain()
				all = all && done[r]
			}
		}
		if all {
			break
		}
	}
	if len(w.boxes) != 0 {
		t.Errorf("%v: %d mailbox queues left unclaimed", ex.Alg, len(w.boxes))
	}
	if w.claims != w.sends || w.releases != w.claims {
		t.Errorf("%v: sends/claims/releases = %d/%d/%d, want all equal", ex.Alg, w.sends, w.claims, w.releases)
	}
	for _, st := range w.state {
		if st != payloadReleased {
			t.Errorf("%v: a payload finished in state %d, want released", ex.Alg, st)
			break
		}
	}
	for r, req := range reqs {
		if seqs, from := req.Missing(); len(seqs)+len(from) != 0 {
			t.Errorf("%v: rank %d complete but reports missing %v from %v", ex.Alg, r, seqs, from)
		}
	}
	return recvs, w
}

// countShapes are the per-pair count matrices the table sweeps:
// counts[src][dst] elements travel from src to dst.
var countShapes = []struct {
	name string
	fn   func(src, dst int) int
}{
	{"uniform", func(src, dst int) int { return 4 }},
	{"skewed", func(src, dst int) int { return 1 + 3*src*src + (dst*5)%7 }},
	{"zeroheavy", func(src, dst int) int {
		if (src*dst+src+2*dst)%3 != 0 {
			return 0
		}
		return src + dst + 1
	}},
}

// TestSchedulesMatchPairwise sweeps the four schedules over count shapes
// and world sizes: every receive buffer is bit-identical to pairwise's
// (and to the direct permutation), and every claimed payload is released
// exactly once and only after its last read (releases poison the payload,
// so an early release shows up as NaNs in some receive buffer).
func TestSchedulesMatchPairwise(t *testing.T) {
	exchanges := []mpi.Exchange{
		{Alg: mpi.CommPairwise},
		{Alg: mpi.CommWindowed, Window: 1},
		{Alg: mpi.CommBruck},
		{Alg: mpi.CommHier, NodeSize: 2},
		{Alg: mpi.CommHier, NodeSize: 3},
	}
	for _, shape := range countShapes {
		for _, p := range []int{2, 3, 4, 5, 8} {
			counts := make([][]int, p)
			for s := range counts {
				counts[s] = make([]int, p)
				for d := range counts[s] {
					counts[s][d] = shape.fn(s, d)
				}
			}
			want, _ := runExchange(t, mpi.Exchange{Alg: mpi.CommPairwise}, counts)
			for r := 0; r < p; r++ {
				off := 0
				for s := 0; s < p; s++ {
					for i := 0; i < counts[s][r]; i++ {
						if want[r][off] != blockValue(s, r, i) {
							t.Fatalf("%s p=%d pairwise: rank %d element %d from %d = %v, want %v",
								shape.name, p, r, i, s, want[r][off], blockValue(s, r, i))
						}
						off++
					}
				}
			}
			for _, ex := range exchanges {
				name := fmt.Sprintf("%s/p%d/%v", shape.name, p, ex.Alg)
				if ex.Alg == mpi.CommWindowed {
					name += fmt.Sprintf("-w%d", ex.Window)
				}
				if ex.Alg == mpi.CommHier {
					name += fmt.Sprintf("-ns%d", ex.NodeSize)
				}
				t.Run(name, func(t *testing.T) {
					got, w := runExchange(t, ex, counts)
					for r := range got {
						for i := range got[r] {
							if math.Float64bits(real(got[r][i])) != math.Float64bits(real(want[r][i])) ||
								math.Float64bits(imag(got[r][i])) != math.Float64bits(imag(want[r][i])) {
								t.Fatalf("rank %d element %d = %v, pairwise %v", r, i, got[r][i], want[r][i])
							}
						}
					}
					if ex.Alg == mpi.CommBruck && w.sends != p*bruckRounds(p) {
						t.Errorf("bruck sent %d packets, want one per rank per round (%d)", w.sends, p*bruckRounds(p))
					}
				})
			}
		}
	}
}
