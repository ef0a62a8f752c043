package pfft

import (
	"testing"

	"offt/internal/mpi"
)

func TestTestsDueEdgeCases(t *testing.T) {
	// f = 0: never any tests due.
	for u := 0; u < 8; u++ {
		if got := testsDue(0, u, 8); got != 0 {
			t.Errorf("testsDue(0, %d, 8) = %d, want 0", u, got)
		}
	}
	// n = 0 and n < 0: degenerate unit counts are a no-op, not a panic.
	if got := testsDue(4, 0, 0); got != 0 {
		t.Errorf("testsDue(4, 0, 0) = %d, want 0", got)
	}
	if got := testsDue(4, 0, -3); got != 0 {
		t.Errorf("testsDue(4, 0, -3) = %d, want 0", got)
	}
}

func TestTestsDueDistribution(t *testing.T) {
	// Across all u in [0, n) the per-unit counts must sum to exactly f,
	// including f > n (several tests after one unit) and f < n (most units
	// get none).
	cases := []struct{ f, n int }{
		{1, 8}, {3, 8}, {8, 8}, {17, 8}, {64, 8}, {5, 1}, {0, 5},
	}
	for _, tc := range cases {
		sum := 0
		for u := 0; u < tc.n; u++ {
			due := testsDue(tc.f, u, tc.n)
			if due < 0 {
				t.Errorf("testsDue(%d, %d, %d) = %d, negative", tc.f, u, tc.n, due)
			}
			sum += due
		}
		if sum != tc.f {
			t.Errorf("f=%d n=%d: tests issued sum to %d, want %d", tc.f, tc.n, sum, tc.f)
		}
	}
	// f ≥ n must schedule at least one test after every unit.
	for u := 0; u < 8; u++ {
		if due := testsDue(17, u, 8); due < 1 {
			t.Errorf("testsDue(17, %d, 8) = %d, want ≥ 1 when f > n", u, due)
		}
	}
}

// countComm is a stub communicator that counts Test invocations.
type countComm struct {
	tests int
}

func (c *countComm) Rank() int  { return 0 }
func (c *countComm) Size() int  { return 1 }
func (c *countComm) Now() int64 { return 0 }
func (c *countComm) Barrier()   {}
func (c *countComm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
}
func (c *countComm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	return nil
}
func (c *countComm) Test(reqs ...mpi.Request) bool { c.tests++; return false }
func (c *countComm) Wait(reqs ...mpi.Request)      {}

func TestPoll(t *testing.T) {
	var b Breakdown
	window := []mpi.Request{nil, nil}

	// Empty window: no Test calls regardless of n.
	c := &countComm{}
	Poll(c, nil, 4, &b, nil)
	Poll(c, []mpi.Request{}, 4, &b, nil)
	if c.tests != 0 {
		t.Errorf("Poll with empty window issued %d Test calls, want 0", c.tests)
	}

	// n ≤ 0: no-op.
	c = &countComm{}
	Poll(c, window, 0, &b, nil)
	Poll(c, window, -2, &b, nil)
	if c.tests != 0 {
		t.Errorf("Poll with n ≤ 0 issued %d Test calls, want 0", c.tests)
	}

	// Otherwise exactly n Test calls over the window.
	c = &countComm{}
	Poll(c, window, 5, &b, nil)
	if c.tests != 5 {
		t.Errorf("Poll(n=5) issued %d Test calls, want 5", c.tests)
	}
}
