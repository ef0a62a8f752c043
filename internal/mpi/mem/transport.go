package mem

import (
	"sync/atomic"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
)

// counters aggregates transport-recovery activity world-wide. All fields
// are updated atomically so senders, delivery timers and retransmit timers
// never contend on the world lock just to count.
type counters struct {
	sent, delivered                    atomic.Int64
	dropsInjected, corruptionsInjected atomic.Int64
	duplicatesInjected, retransmits    atomic.Int64
	dedups, corruptionsDetected        atomic.Int64
	acks, backoffs                     atomic.Int64
}

func (s *counters) snapshot() mpi.Health {
	return mpi.Health{
		Sent:                s.sent.Load(),
		Delivered:           s.delivered.Load(),
		DropsInjected:       s.dropsInjected.Load(),
		CorruptionsInjected: s.corruptionsInjected.Load(),
		DuplicatesInjected:  s.duplicatesInjected.Load(),
		Retransmits:         s.retransmits.Load(),
		Dedups:              s.dedups.Load(),
		CorruptionsDetected: s.corruptionsDetected.Load(),
		Acks:                s.acks.Load(),
		Backoffs:            s.backoffs.Load(),
	}
}

// outMsg tracks an unacknowledged envelope on the sender side. The
// envelope format itself — and its binary wire framing, used by the net
// engine — lives in the shared package mpi/envelope; the mem engine
// delivers the same struct through memory.
type outMsg struct {
	env   *envelope.Envelope
	timer *time.Timer
}

// maxBackoff caps the exponential retransmission backoff at rto << maxBackoff.
const maxBackoff = 4

// send routes one block from src to dst, copying the payload at call time
// (eager-buffered semantics). Without an active fault plan it takes the
// direct path (immediate or delay-timed deposit) and copies into a
// recycled buffer; with one, every message goes through the retransmitting
// envelope transport and gets a fresh copy.
func (w *World) send(src, dst, tag int, block []complex128) {
	w.stats.sent.Add(1)
	if w.plan.Active() {
		data := make([]complex128, len(block))
		copy(data, block)
		w.sendEnvelope(src, dst, tag, data)
		return
	}
	data := w.buffer(len(block))
	copy(data, block)
	k := mkey{src, tag}
	if !w.delayed {
		w.deposit(dst, k, message{data: data})
		return
	}
	bytes := len(block) * mpi.Elem16
	d := time.Duration(w.mach.Latency(src, dst) + int64(float64(bytes)*w.mach.EffNsPerByte(src, dst, w.mach.Nodes(w.p))))
	w.mu.Lock()
	w.inFlight++
	w.mu.Unlock()
	time.AfterFunc(d, func() {
		w.mu.Lock()
		w.inFlight--
		closed := w.closed
		if !closed {
			w.boxes[dst][k] = append(w.boxes[dst][k], message{data: data})
			w.stats.delivered.Add(1)
			w.conds[dst].Broadcast()
		}
		w.mu.Unlock()
	})
}

// buffer returns a direct-path payload buffer of length n, reusing a
// released one when the free list has it.
func (w *World) buffer(n int) []complex128 {
	w.mu.Lock()
	if bufs := w.free[n]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		bufs[len(bufs)-1] = nil
		w.free[n] = bufs[:len(bufs)-1]
		w.mu.Unlock()
		return b
	}
	w.mu.Unlock()
	return make([]complex128, n)
}

// release files a claimed direct-path payload for reuse by buffer.
// Envelope payloads are never recycled: the retransmit timer or an
// injected duplicate may still read one after it was claimed.
func (w *World) release(data []complex128) {
	if w.plan.Active() {
		return
	}
	w.mu.Lock()
	w.free[len(data)] = append(w.free[len(data)], data)
	w.mu.Unlock()
}

// deposit delivers a message to dst's mailbox immediately.
func (w *World) deposit(dst int, k mkey, m message) {
	w.mu.Lock()
	w.boxes[dst][k] = append(w.boxes[dst][k], m)
	w.stats.delivered.Add(1)
	w.conds[dst].Broadcast()
	w.mu.Unlock()
}

// sendEnvelope registers the message as outstanding and starts delivery
// attempt 0. The message stays outstanding — with a pending retransmit
// timer — until a delivery is acknowledged by the receiver side.
func (w *World) sendEnvelope(src, dst, tag int, data []complex128) {
	env := &envelope.Envelope{Src: src, Dst: dst, Tag: tag, Data: data}
	env.Seal()
	om := &outMsg{env: env}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.nextID++
	env.ID = w.nextID
	w.outstanding[env.ID] = om
	w.mu.Unlock()
	w.transmit(om, 0)
}

// transmit performs one delivery attempt of an outstanding envelope,
// rolling the fault plan for this attempt, and arms the retransmission
// timer with capped exponential backoff. Acknowledged (or dead-world)
// messages are left alone.
func (w *World) transmit(om *outMsg, attempt int) {
	env := om.env
	w.mu.Lock()
	if w.closed || w.failed != nil || w.outstanding[env.ID] != om {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	if attempt > 0 {
		w.stats.retransmits.Add(1)
	}
	d := w.plan.Decide(env.Src, env.Dst, env.Tag, env.ID, attempt)
	now := time.Since(w.epoch).Nanoseconds()
	// Per-rank degradation: a stalled NIC holds the message until the
	// window closes; a slow NIC scales the emulated link delay.
	delay := w.plan.StallEnd(env.Src, now) - now + d.DelayNs
	if w.delayed {
		bytes := len(env.Data) * mpi.Elem16
		link := float64(w.mach.Latency(env.Src, env.Dst)) +
			float64(bytes)*w.mach.EffNsPerByte(env.Src, env.Dst, w.mach.Nodes(w.p))
		delay += int64(link * w.plan.NICFactor(env.Src) * w.plan.LinkFactor(env.Src, env.Dst, now))
	}
	if d.Drop {
		w.stats.dropsInjected.Add(1)
	} else {
		payload := env.Data
		if d.Corrupt {
			w.stats.corruptionsInjected.Add(1)
			payload = fault.CorruptCopy(env.Data, uint64(env.ID)<<8^uint64(attempt))
		}
		w.deliverAfter(delay, env, payload)
		if d.Duplicate {
			w.stats.duplicatesInjected.Add(1)
			w.deliverAfter(delay, env, env.Data)
		}
	}
	rto := w.rto
	for i := 0; i < attempt && i < maxBackoff; i++ {
		rto *= 2
	}
	next := attempt + 1
	w.mu.Lock()
	if w.outstanding[env.ID] == om && !w.closed && w.failed == nil {
		if attempt > 0 {
			w.stats.backoffs.Add(1)
		}
		om.timer = time.AfterFunc(time.Duration(delay)+rto, func() { w.transmit(om, next) })
	}
	w.mu.Unlock()
}

// deliverAfter schedules (or performs) one delivery of a payload copy.
func (w *World) deliverAfter(delayNs int64, env *envelope.Envelope, payload []complex128) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.inFlight++
	w.mu.Unlock()
	if delayNs <= 0 {
		w.deliverEnvelope(env, payload)
		return
	}
	time.AfterFunc(time.Duration(delayNs), func() { w.deliverEnvelope(env, payload) })
}

// deliverEnvelope is the receiver side of the self-healing transport:
// verify the checksum (corrupted deliveries are dropped and recovered by
// retransmission), discard duplicates, acknowledge, then deposit into the
// mailbox.
func (w *World) deliverEnvelope(env *envelope.Envelope, payload []complex128) {
	ok := envelope.Checksum(payload) == env.Sum
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inFlight--
	if w.closed {
		return
	}
	if !ok {
		// No acknowledgement: the sender's retransmit timer recovers.
		w.stats.corruptionsDetected.Add(1)
		return
	}
	if _, dup := w.seen[env.Dst][env.ID]; dup {
		w.stats.dedups.Add(1)
		w.ackLocked(env.ID)
		return
	}
	w.seen[env.Dst][env.ID] = struct{}{}
	w.ackLocked(env.ID)
	w.stats.delivered.Add(1)
	k := mkey{env.Src, env.Tag}
	w.boxes[env.Dst][k] = append(w.boxes[env.Dst][k], message{data: payload})
	w.conds[env.Dst].Broadcast()
}

// ackLocked retires an outstanding envelope and stops its retransmit
// timer. The in-process delivery path doubles as the acknowledgement
// channel (a reliable control plane; only payload deliveries fault).
func (w *World) ackLocked(id int64) {
	om, live := w.outstanding[id]
	if !live {
		return
	}
	if om.timer != nil {
		om.timer.Stop()
	}
	delete(w.outstanding, id)
	w.stats.acks.Add(1)
}

// shutdownTransport stops all pending retransmission timers when Run
// finishes (normally or on error) so a dead world cannot keep firing.
func (w *World) shutdownTransport() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for id, om := range w.outstanding {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
	}
}
