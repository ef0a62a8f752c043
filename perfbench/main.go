package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one named benchmark scenario. It fills r: end-to-end samples
// in both modes, and per-layer values when r.trace is set.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"serve-slab-64", runServe},
	{"lib-slab-128", runLib},
	{"net-pencil-32", runNetPencil},
	{"tune-sim", runTune},
}

// errWrongOutput marks a run that completed but produced at least one
// output the oracle rejected; the result is still printed.
var errWrongOutput = errors.New("wrong output")

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	serveBin := flag.String("serve-bin", "", "path of the offt-serve binary (serve-slab-64)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		serveBin: *serveBin,
		e2e:      map[string][]float64{},
		layer:    map[string]float64{},
		count:    map[string]int{},
	}
	r.note("provenance: %s", provenance(r))
	m := startSteal()
	err = w.run(r)
	r.note("host steal during run: %.1f%% of CPU time", 100*m.share())
	if err != nil && !errors.Is(err, errWrongOutput) {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res, rerr := r.result(spec)
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, rerr)
		os.Exit(1)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, "|")
}

// run carries one invocation's settings and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string

	mu                sync.Mutex // guards attempted and failed
	attempted, failed int
	// e2e holds the end-to-end samples: latency_ms per operation, and
	// single values for setup_s (one per repetition), ops_per_s and
	// peak_rss_mib.
	e2e map[string][]float64
	// setupSteal and loopSteal are the host's CPU steal shares while the
	// set-ups and the recorded loop ran.
	setupSteal, loopSteal float64
	// layer holds the per-layer values of a traced run, and count the
	// number of samples behind each one.
	layer map[string]float64
	count map[string]int
}

func (r *run) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// noteShape records the array size next to the host's L3 and flags rank
// oversubscription, so timings are read against both.
func (r *run) noteShape(n, ranks int) {
	r.note("array: %d³ complex128 = %.1f MiB per copy (L3 in provenance); layout bandwidths are computed bytes over measured time",
		n, float64(16*n*n*n)/(1<<20))
	if cpus := runtime.NumCPU(); ranks > cpus {
		r.note("%d ranks on %d CPUs oversubscribe the cores; wall-clock scaling across rank counts is not reported", ranks, cpus)
	}
}

// set records a per-layer value measured from n samples.
func (r *run) set(name string, v float64, n int) {
	r.layer[name] = v
	r.count[name] = n
}

// check counts one attempted operation and reports whether it passed. It
// is safe for concurrent clients.
func (r *run) check(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.note("FAILED: %v", err)
		}
		return false
	}
	return true
}

// phase is one closed-loop measurement: per-operation latencies, the wall
// time they were collected over, and the host's CPU steal share meanwhile.
type phase struct {
	latMs []float64
	wall  time.Duration
	steal float64
}

func (p *phase) add(d time.Duration) { p.latMs = append(p.latMs, float64(d)/1e6) }

func (p *phase) merge(o phase) { p.latMs = append(p.latMs, o.latMs...) }

func (p phase) opsPerS() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.latMs)) / p.wall.Seconds()
}

// summary renders a phase's end-to-end figures for the human report.
func (p phase) summary() string {
	return fmt.Sprintf("ops_per_s=%.3f %s steal=%.1f%%", p.opsPerS(), latencySummary(p.latMs), 100*p.steal)
}

func latencySummary(lat []float64) string {
	return fmt.Sprintf("n=%d p50=%.3fms p90=%.3fms p99=%.3fms (%d beyond p90, %d beyond p99)",
		len(lat), quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99),
		beyond(len(lat), 0.90), beyond(len(lat), 0.99))
}

// record stores the phase as the run's end-to-end measurement.
func (r *run) record(p phase) {
	r.e2e["latency_ms"] = p.latMs
	r.e2e["ops_per_s"] = []float64{p.opsPerS()}
	r.loopSteal = p.steal
}

// measure runs one loop phase and records the steal share around it.
func measure(loop func(d time.Duration, traced bool) (phase, error), d time.Duration, traced bool) (phase, error) {
	m := startSteal()
	p, err := loop(d, traced)
	p.steal = m.share()
	return p, err
}

// untracedThenTraced warms up, then records the loop for the run's length.
// A traced run splits that time in two halves: the first runs the same loop
// as an untraced run, the second collects the per-layer data. Both halves
// are printed so the tracing overhead shows; the untraced half feeds the
// end-to-end record.
func (r *run) untracedThenTraced(loop func(d time.Duration, traced bool) (phase, error)) error {
	// A short unrecorded stretch first lets caches, pools and the heap
	// reach their steady size; its outputs are still checked.
	if _, err := loop(warmup, false); err != nil {
		return err
	}
	if !r.trace {
		p, err := measure(loop, r.seconds, false)
		r.record(p)
		return err
	}
	a, err := measure(loop, r.seconds/2, false)
	r.record(a)
	if err != nil {
		return err
	}
	b, err := measure(loop, r.seconds-r.seconds/2, true)
	r.note("end-to-end untraced half: %s", a.summary())
	r.note("end-to-end traced half:   %s", b.summary())
	if a50, b50 := quantile(a.latMs, 0.5)*(1-a.steal), quantile(b.latMs, 0.5)*(1-b.steal); a50 > 0 {
		r.note("tracing overhead on steal-scaled latency p50: %+.1f%%", 100*(b50/a50-1))
	}
	return err
}

// warmup is how long each run exercises the workload before recording.
const warmup = time.Second

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 11

// setups runs a workload's set-up setupReps times, recording each duration
// as a setup_s sample. setup returns the teardown of what it built, or an
// error after cleaning up itself; every set-up but the last is torn down,
// untimed, before the next starts, and the last one's teardown is returned.
func (r *run) setups(setup func() (teardown func(), err error)) (func(), error) {
	m := startSteal()
	var teardown func()
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		var err error
		if teardown, err = setup(); err != nil {
			return nil, err
		}
		r.e2e["setup_s"] = append(r.e2e["setup_s"], time.Since(t0).Seconds())
	}
	r.setupSteal = m.share()
	return teardown, nil
}

func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// beyond counts the samples above the q-quantile of n samples.
func beyond(n int, q float64) int { return n - 1 - int(math.Floor(q*float64(n-1))) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeMs runs fn reps times and returns the per-call times in ms.
func timeMs(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return out
}

func provenance(r *run) string {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	l3 := "unknown"
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		l3 = strings.TrimSpace(string(b))
	}
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	return fmt.Sprintf("workload=%s seed=%d seconds=%.1f mode=%s host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s L3=%s",
		r.workload, r.seed, r.seconds.Seconds(), mode, host, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit, sourceDigest("."), l3)
}

// sourceDigest identifies the Go sources under root by a SHA-256 over the
// path and contents of every .go, go.mod and go.sum file, so a run from a
// checkout without version-control metadata still names the code it ran.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") { // .git, .bench_build
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// stealMeter measures the share of CPU time the hypervisor gave to other
// guests over an interval, from the host's cumulative /proc/stat counters.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// share returns the steal share since the meter started (0 where
// /proc/stat is unavailable).
func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuTicks returns the host's cumulative steal and total CPU ticks.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
