package sched

import "fmt"

// bruckRounds returns ⌈log2 p⌉, the round count of the Bruck schedule.
func bruckRounds(p int) int {
	r := 0
	for (1 << r) < p {
		r++
	}
	return r
}

// bruckBlock is one block in flight through the Bruck store-and-forward
// pipeline. data aliases either the caller's frozen send buffer (round −1)
// or the claimed packet of the given round, which this rank owns until
// every block carved from it has been placed or re-sent.
type bruckBlock struct {
	origin, dest int
	round        int
	data         []complex128
}

// bruckPacket is a claimed round packet and the number of held blocks
// still aliasing it; it is released when that count reaches zero.
type bruckPacket struct {
	data []complex128
	live int
}

// bruckRequest advances one rank through the ⌈log2 p⌉ Bruck rounds. A
// block destined for d and currently held by r has remaining distance
// (d−r) mod p; round k forwards every held block whose distance has bit k
// set to rank r+2^k, shrinking its distance by 2^k. Distances are < p, so
// all bits clear within ⌈log2 p⌉ rounds and every block lands at its
// destination. Each rank sends exactly one (possibly empty) combined
// packet per round under tag base+k, and entering round k+1 requires
// round k's inbound packet — the per-rank state machine Drain() runs.
type bruckRequest struct {
	port       Port
	baseTag    int
	rounds     int
	round      int // rounds fully processed; == rounds ⇒ complete
	recv       []complex128
	recvCounts []int
	offsets    []int
	remaining  int // foreign blocks not yet placed into recv
	hold       []bruckBlock
	packets    []bruckPacket // claimed packet of each processed round
}

func postBruck(port Port, send []complex128, sendCounts, soff []int, recv []complex128, recvCounts, offsets []int) *bruckRequest {
	p, rank := port.Size(), port.Rank()
	rounds := bruckRounds(p)
	req := &bruckRequest{
		port: port, baseTag: port.NextTags(rounds), rounds: rounds,
		recv: recv, recvCounts: append([]int(nil), recvCounts...), offsets: offsets,
		packets: make([]bruckPacket, rounds),
	}
	for i := 1; i < p; i++ {
		d := (rank + i) % p
		if sendCounts[d] > 0 {
			req.hold = append(req.hold, bruckBlock{origin: rank, dest: d, round: -1, data: send[soff[d] : soff[d]+sendCounts[d]]})
		}
		if req.recvCounts[d] > 0 {
			req.remaining++
		}
	}
	copy(recv[offsets[rank]:offsets[rank]+sendCounts[rank]], send[soff[rank]:soff[rank]+sendCounts[rank]])
	req.sendRound(0)
	return req
}

// sendRound assembles and transmits round k's combined packet: held blocks
// whose remaining distance has bit k set, encoded as
// [n, (origin+i·dest, len)·n, payload·n]. The packet always goes out, even
// empty, so the receiver's round state machine never stalls.
func (r *bruckRequest) sendRound(k int) {
	port := r.port
	p, rank := port.Size(), port.Rank()
	size, n := 1, 0
	for _, b := range r.hold {
		if ((b.dest-rank+p)%p)&(1<<k) != 0 {
			size += 2 + len(b.data)
			n++
		}
	}
	pkt := port.Scratch(size)
	pkt[0] = complex(float64(n), 0)
	pos := 1
	keep := r.hold[:0]
	for _, b := range r.hold {
		if ((b.dest-rank+p)%p)&(1<<k) == 0 {
			keep = append(keep, b)
			continue
		}
		pkt[pos] = complex(float64(b.origin), float64(b.dest))
		pkt[pos+1] = complex(float64(len(b.data)), 0)
		pos += 2
		copy(pkt[pos:pos+len(b.data)], b.data)
		pos += len(b.data)
		if b.round >= 0 {
			r.unref(b.round)
		}
	}
	r.hold = keep
	port.Send((rank+(1<<k))%p, r.baseTag+k, pkt)
}

// unref drops one held block's claim on round k's packet, releasing the
// packet once nothing aliases it.
func (r *bruckRequest) unref(k int) {
	pk := &r.packets[k]
	pk.live--
	if pk.live == 0 {
		r.port.Release(pk.data)
		pk.data = nil
	}
}

// processRound splits round k's inbound packet into blocks that arrived
// (distance 0: copy into recv) and blocks to keep forwarding, which keep
// the packet claimed until they are re-sent.
func (r *bruckRequest) processRound(k int, data []complex128) {
	port := r.port
	p, rank := port.Size(), port.Rank()
	held := len(r.hold)
	n := int(real(data[0]))
	pos := 1
	for i := 0; i < n; i++ {
		origin := int(real(data[pos]))
		dest := int(imag(data[pos]))
		ln := int(real(data[pos+1]))
		pos += 2
		payload := data[pos : pos+ln]
		pos += ln
		if dest == rank {
			if ln != r.recvCounts[origin] {
				panic(fmt.Sprintf("mpi/sched: bruck: rank %d got %d elements from %d, want %d", rank, ln, origin, r.recvCounts[origin]))
			}
			copy(r.recv[r.offsets[origin]:r.offsets[origin]+ln], payload)
			r.remaining--
		} else {
			if (dest-rank+p)%p == 0 {
				panic(fmt.Sprintf("mpi/sched: bruck: rank %d holding misrouted block %d→%d", rank, origin, dest))
			}
			r.hold = append(r.hold, bruckBlock{origin: origin, dest: dest, round: k, data: payload})
		}
	}
	if live := len(r.hold) - held; live > 0 {
		r.packets[k] = bruckPacket{data: data, live: live}
	} else {
		r.port.Release(data)
	}
}

func (r *bruckRequest) Drain() bool {
	port := r.port
	p := port.Size()
	for r.round < r.rounds {
		src := (port.Rank() - (1 << r.round) + p*2) % p
		data, ok := port.TryClaim(src, r.baseTag+r.round)
		if !ok {
			return false
		}
		r.processRound(r.round, data)
		r.round++
		if r.round < r.rounds {
			r.sendRound(r.round)
		}
	}
	if r.remaining != 0 || len(r.hold) != 0 {
		panic(fmt.Sprintf("mpi/sched: bruck: rank %d finished rounds with %d blocks missing, %d undelivered", port.Rank(), r.remaining, len(r.hold)))
	}
	return true
}

func (r *bruckRequest) Queued() bool {
	if r.round >= r.rounds {
		return false
	}
	p := r.port.Size()
	src := (r.port.Rank() - (1 << r.round) + p*2) % p
	return r.port.Queued(src, r.baseTag+r.round)
}

func (r *bruckRequest) Missing() (seqs, from []int) {
	if r.round >= r.rounds {
		return nil, nil
	}
	p := r.port.Size()
	return []int{r.baseTag + r.round}, []int{(r.port.Rank() - (1 << r.round) + p*2) % p}
}
