package pfft

import (
	"offt/internal/mpi"
)

// retransmitDowngradeThreshold is how many transport retransmissions
// (world-wide, counted from the start of this rank's overlapped pipeline)
// the pipeline tolerates before it stops trusting the fabric and
// downgrades to the blocking path even though no wait deadline has fired
// yet. Sized well above what the chaos profiles produce on a healthy run
// (tens to hundreds) so it only trips on a persistently failing transport.
const retransmitDowngradeThreshold = 4096

// faultMonitor decides when an overlapped pipeline must downgrade to the
// blocking mode. It uses the engine's optional capabilities: soft wait
// deadlines (mpi.DeadlineWaiter) and transport-recovery counters
// (mpi.HealthReporter). On engines with neither, waitTile is plain Wait
// and no downgrade ever triggers.
type faultMonitor struct {
	dw       mpi.DeadlineWaiter
	hr       mpi.HealthReporter
	baseline int64 // Retransmits at pipeline start
	// one is scratch for single-request Wait calls: spreading a reusable
	// slice into the variadic Wait avoids a per-call heap allocation,
	// which the steady-state allocation gate would otherwise count.
	one [1]mpi.Request
}

// init (re-)arms the monitor for one pipeline run.
func (m *faultMonitor) init(c mpi.Comm) {
	m.dw, _ = c.(mpi.DeadlineWaiter)
	m.hr, _ = c.(mpi.HealthReporter)
	m.baseline = 0
	if m.hr != nil {
		m.baseline = m.hr.TransportHealth().Retransmits
	}
}

// waitTile waits for one tile's collective and reports whether the
// overlapped pipeline may continue. False means downgrade: either the
// transport shows persistent retransmission pressure (checked before
// blocking) or the soft wait deadline passed. In both cases the request
// stays valid — the blocking mode finishes it with a plain Wait.
func (m *faultMonitor) waitTile(c mpi.Comm, req mpi.Request) bool {
	if m.hr != nil && m.hr.TransportHealth().Retransmits-m.baseline > retransmitDowngradeThreshold {
		return false
	}
	if m.dw == nil {
		m.wait(c, req)
		return true
	}
	return m.dw.WaitDeadline(req) == nil
}

// wait is a plain, allocation-free Wait on one request.
func (m *faultMonitor) wait(c mpi.Comm, req mpi.Request) {
	m.one[0] = req
	c.Wait(m.one[:]...)
	m.one[0] = nil
}
