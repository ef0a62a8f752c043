// Command perfbench is offt's benchmark: one command that runs a named
// workload, checks every output against an oracle, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// listed in BENCHMARK.json at the repository root.
//
// Run it from the repository root; the wrapper builds this module and the
// offt-serve binary under .bench_build/ first:
//
//	bash perfbench/run.sh --workload lib-slab-128 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it start with "#"
// and carry the provenance (host, nproc, GOMAXPROCS, Go version, commit
// where the build saw version-control metadata, a digest of the Go sources
// that names the code either way, seed, run length, L3 size, array bytes,
// the host's CPU steal during the run), the metric table with the sample
// count behind every value, and fail_frac. A wrong output is counted in
// failed, makes correct false, and the command exits 1.
//
// # Workloads
//
// Each workload is one process with at most two client goroutines or
// connections (nproc on the reference host), and each stresses layers the
// others bypass:
//
//   - serve-slab-64: offt-serve as a child process on loopback; two
//     closed-loop HTTP clients alternate forward and backward 64³, p=4,
//     slab, NEW transforms on one plan key. The only workload through wire
//     decode/encode, admission and the plan registry; the mem-engine
//     exchange dominates rank time. Supersedes BENCH_PR5.json.
//   - lib-slab-128: an in-process offt.Plan ForwardInto/BackwardInto round
//     trip on 128³ with p=2, so ranks equal cores, without HTTP. FFT
//     kernels, transpose, pack/unpack and scatter/gather do most of the
//     work. Supersedes the kernel record BENCH_PR4.json (as fft.*).
//   - net-pencil-32: a 32³ pencil plan on a 2×2 grid of internal/mpi/net
//     ranks over loopback TCP, forward then backward. Exchange-bound; the
//     only real-data workload on the net transport, the envelope codec and
//     the pencil pipeline. Supersedes the net half of BENCH_PR10.json.
//   - tune-sim: each operation is offt.TuneNEW("umd-cluster", 16, 256, 60)
//     then tuner.TunePencilNEW(umd-cluster, 16, 128, 60). The only workload
//     where the tuner, model, simnet, vclock and mpi/sim do any work.
//     Supersedes the tuner-parity part of BENCH_PR9.json.
//
// Inputs are drawn from --seed before any timing starts, and the program
// only receives the generated payloads. tune-sim has no data input: the
// tuner and the simulator are deterministic, so its seed changes nothing.
//
// # Oracle
//
// On the three data workloads every forward result is compared with the
// serial internal/fft 3-D transform of the same input, and every backward
// result (the inverse of that reference spectrum) with the input scaled by
// N³, each to a relative max error of 1e-9. On tune-sim both tuned points
// must be feasible, priced by the model at the time the tuner reported and
// no slower than the default point, and every repeat must find the same
// best virtual times as the first operation.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric. An operation is one HTTP
// request on serve-slab-64, one forward-then-backward round trip on
// lib-slab-128 and net-pencil-32 (a single median over two directions of
// different cost would jump between them), and one tune pair on tune-sim.
//
//   - setup_s: median of eleven set-ups, each from start to the first
//     correct result. serve-slab-64: spawn, healthy, first transform;
//     lib-slab-128: NewPlan (which builds the mem world) plus the first
//     transform; net-pencil-32: join plus pencil.NewPlan plus the first
//     transform; tune-sim: resolving the machine model and pricing the
//     default points the oracle compares against.
//   - ops_per_s: successful operations per second of the closed loop.
//   - latency_p50_ms, latency_p90_ms: per operation, on the client's clock.
//     On tune-sim latency_p50_ms is the median wall time of one operation
//     (tune_s, also printed in seconds). At 25 s p90 has ten or more
//     samples beyond it on the three data workloads (about ten on
//     lib-slab-128); tune-sim runs about ten operations, so its p90 is
//     near its maximum. p99 is printed with
//     its sample count but not reported: run to run it moves by up to half
//     its value on the reference host, more than any bound can absorb.
//   - peak_rss_mib: VmHWM of the offt-serve child on serve-slab-64 and of
//     this process (which also holds the oracle's arrays) on the others.
//
// The reference host is a 2-vCPU VM whose hypervisor takes CPU time away
// when neighbouring guests are busy (steal); at 10–30% steal latencies grow
// by 15–50%. Every run prints the steal share of its set-up and its loop,
// and the timing metrics are scaled by (1 − steal) of the interval they
// were measured in, which brings medians and throughput measured under
// steal back within a few percent of quiet runs. The unscaled figures are
// printed beside them.
//
// fail_frac is printed in the table; the JSON carries it as failed over
// attempted, since a metric that is 0 on a healthy run cannot take a
// relative bound.
//
// # Per-layer metrics and what they should move
//
// A traced run measures the untraced loop for half its time and the traced
// loop for the other half, prints both halves' end-to-end figures so the
// tracing overhead shows, then times each layer from outside by calling its
// public functions on the workload's own inputs. A per-layer metric reads 0
// on a workload that does not measure it; the table marks those.
//
//   - serve.* (serve-slab-64) should move latency_p50_ms and ops_per_s
//     there and nothing on the other workloads. exec, queue and
//     outside_exec (client latency minus both) come from every response
//     header; decode, encode, admission, registry and handler are timed
//     in-process on the same bodies; plan_cache_hit_frac comes from
//     /metrics.json.
//   - budget.coverage is the share of the mean client latency that the
//     workload's named layers account for: on serve-slab-64 queue, exec,
//     decode, registry and encode; on lib-slab-128 scatter, dispatch and
//     gather; on net-pencil-32 the slowest rank's pencil time; on tune-sim
//     the tuner calls. Recorded, not bounded; the target is 0.95.
//   - offt.* (serve-slab-64 in process, lib-slab-128) should move
//     latency_p50_ms there: scatter, dispatch and gather from ExecStats,
//     join as dispatch minus the slowest rank, per-direction p50s,
//     downgrades, steady-state allocation per transform, and on
//     lib-slab-128 the p=1 serial baseline.
//   - pfft.* (slab workloads), from the rank-averaged Breakdown: Wait, Test
//     and Ialltoall should move latency_p90_ms on serve-slab-64, the
//     compute steps ops_per_s on lib-slab-128.
//   - pencil.* (net-pencil-32), the same ten names: Wait and Ialltoall
//     should move latency_p50_ms there.
//   - fft.* (data workloads, on each one's row shapes; flops_per_op is the
//     computed 5·N·log₂N count of one 3-D transform) should move ops_per_s
//     on lib-slab-128 and barely touch net-pencil-32.
//   - layout.* (slab workloads): computed read-plus-written bytes over timed
//     kernel calls on the workload's tiles, beside host.copy_gbps from the
//     same run. A 128³ array is 32 MiB against the 105 MiB L3 of the
//     reference host, so these are cache-resident bandwidths, labelled as
//     computed. They should move ops_per_s on lib-slab-128.
//   - mpi.* from transport Health() deltas per transform (mem on the slab
//     workloads, net on net-pencil-32); bytes_per_op is computed from the
//     exchange block sizes, and alltoallv_ms times one standalone blocking
//     Alltoallv of the workload's block sizes. On mem they should move
//     serve-slab-64's latency_p90_ms; on net, net-pencil-32's
//     latency_p50_ms and latency_p90_ms.
//   - tuner.* and model.* (tune-sim) should move latency_p50_ms there only.
//     tuner.virtual_s and tuner.best_virtual_ms.* are simulated time on the
//     machine model, in units virtual_s and virtual_ms: the tuner is
//     deterministic, so they and the tuner counts repeat exactly run to run.
//     model.simulate_ms_p50 re-times model.SimulateCube on the slab
//     configurations the search visited, and model.share is the share of
//     an operation spent pricing configurations.
//
// serve-slab-64 runs four ranks on two CPUs, so its ranks are
// oversubscribed; wall-clock scaling across rank counts is not reported.
package main
