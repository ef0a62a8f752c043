package mem

import (
	"testing"

	"offt/internal/mpi"
	"offt/internal/mpi/fault"
)

// runRepeated runs the same all-to-all three times, with a barrier after
// each so no send of one round can overtake a release of the previous,
// and returns the world for inspection.
func runRepeated(t *testing.T, p, count int, ex mpi.Exchange, opts ...Option) *World {
	t.Helper()
	w := NewWorld(p, opts...)
	err := w.Run(func(c *Comm) {
		c.SetExchange(ex)
		counts := make([]int, p)
		for i := range counts {
			counts[i] = count
		}
		for round := 0; round < 3; round++ {
			send := fillBlocks(c.Rank(), counts)
			recv := make([]complex128, count*p)
			c.Alltoallv(send, counts, recv, counts)
			checkBlocks(t, c.Rank(), counts, recv)
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDirectPayloadsRecycled: on the direct path every claimed payload
// comes back to the free list and later sends reuse it, so three
// identical rounds own at most one round's worth of buffers (fewer when a
// release overtakes a send within the round).
func TestDirectPayloadsRecycled(t *testing.T) {
	const p, count = 3, 5
	w := runRepeated(t, p, count, mpi.Exchange{Alg: mpi.CommPairwise})
	if got, max := len(w.free[count]), p*(p-1); got == 0 || got > max {
		t.Errorf("free list holds %d buffers of length %d after three rounds, want 1..%d (one round's sends)", got, count, max)
	}
	// Bruck packets carry headers and differ in length, but they are
	// recycled the same way: three rounds own no more than one round's.
	wb := runRepeated(t, 5, count, mpi.Exchange{Alg: mpi.CommBruck})
	total := 0
	for _, bufs := range wb.free {
		total += len(bufs)
	}
	if max := 5 * 3; total == 0 || total > max { // p=5: ⌈log₂ 5⌉ = 3 rounds
		t.Errorf("bruck free list holds %d buffers after three rounds, want 1..%d", total, max)
	}
}

// TestFaultPathNeverRecycles: under an active fault plan an envelope's
// payload may be retransmitted or duplicated after it was claimed, so
// Release must not file it for reuse.
func TestFaultPathNeverRecycles(t *testing.T) {
	plan := &fault.Plan{Seed: 3, DupRate: 1}
	w := runRepeated(t, 3, 5, mpi.Exchange{Alg: mpi.CommPairwise}, WithFaults(plan))
	if len(w.free) != 0 {
		t.Errorf("free list has %d lengths under an active fault plan, want none", len(w.free))
	}
	if w.Health().DuplicatesInjected == 0 {
		t.Error("fault plan injected no duplicates; the test exercised nothing")
	}
}
