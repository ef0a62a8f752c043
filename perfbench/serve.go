package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"offt"
	"offt/internal/serve"
)

const (
	serveN       = 64
	serveRanks   = 4
	serveClients = 2 // at most nproc client goroutines on the reference host
)

// serveBodies are one client's pre-encoded request bodies: a forward
// transform of its seeded cube and a backward transform of that cube's
// reference spectrum.
type serveBodies struct {
	c             cube
	forward, back []byte
}

func newServeBodies(seed int64, client int) (serveBodies, error) {
	b := serveBodies{c: newCube(serveN, seed, uint64(client))}
	var err error
	if b.forward, err = transformBody("forward", b.c.x); err != nil {
		return b, err
	}
	b.back, err = transformBody("backward", b.c.spec)
	return b, err
}

func transformBody(direction string, payload []complex128) ([]byte, error) {
	var buf bytes.Buffer
	req := serve.TransformRequest{
		Nx: serveN, Ny: serveN, Nz: serveN, Ranks: serveRanks,
		Direction: direction, Decomp: "slab", Variant: "new", Engine: "mem",
	}
	if err := serve.WriteHeader(&buf, req); err != nil {
		return nil, err
	}
	if err := serve.WritePayload(&buf, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// child is one offt-serve process on a loopback port.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stdout hits EOF
}

func startChild(bin string) (*child, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-slab-64 needs --serve-bin")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	cmd.Stderr = os.Stderr
	// If this process dies without stopping the child, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start offt-serve: %w", err)
	}
	ch := &child{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(ch.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			const prefix = "offt-serve listening on http://"
			if line := sc.Text(); strings.HasPrefix(line, prefix) {
				addr <- strings.Fields(strings.TrimPrefix(line, prefix))[0]
			}
		}
	}()
	select {
	case ch.base = <-addr:
		return ch, nil
	case <-ch.done:
	case <-time.After(30 * time.Second):
	}
	ch.stop()
	return nil, fmt.Errorf("offt-serve did not report its address")
}

// stop drains the child with SIGTERM, killing it if it does not exit in
// time, and waits for it.
func (ch *child) stop() {
	_ = ch.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-ch.done:
	case <-time.After(15 * time.Second):
		_ = ch.cmd.Process.Kill()
		<-ch.done
	}
	_ = ch.cmd.Wait()
}

func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("offt-serve at %s not healthy: %v", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exchange posts one body and reads the whole response into buf. The
// returned duration is the client's view of the request.
func exchange(client *http.Client, base string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	buf.Reset()
	t0 := time.Now()
	resp, err := client.Post("http://"+base+"/v1/transform", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return d, nil
}

// decodeResponse parses a transform response into its header and out.
func decodeResponse(raw []byte, out []complex128) (serve.TransformResponse, error) {
	var tr serve.TransformResponse
	rd := bytes.NewReader(raw)
	if err := serve.ReadHeader(rd, &tr); err != nil {
		return tr, err
	}
	return tr, serve.ReadPayloadInto(rd, out)
}

// headerTimes collects the per-request layer times a traced client reads
// from response headers.
type headerTimes struct {
	execMs, queueMs, outsideMs []float64
}

// serveClient is one closed-loop client: it alternates forward and backward
// requests on its bodies until d has passed, checking every response.
func serveClient(r *run, client *http.Client, base string, b serveBodies, d time.Duration, ht *headerTimes) phase {
	var p phase
	var buf bytes.Buffer
	out := make([]complex128, b.c.elements)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		body, check := b.forward, b.c.checkForward
		if i%2 == 1 {
			body, check = b.back, b.c.checkBackward
		}
		lat, err := exchange(client, base, body, &buf)
		var tr serve.TransformResponse
		if err == nil {
			tr, err = decodeResponse(buf.Bytes(), out)
		}
		if err == nil {
			err = check(out)
		}
		if !r.check(err) {
			continue
		}
		p.add(lat)
		if ht != nil {
			exec, queue := float64(tr.ExecNs)/1e6, float64(tr.QueueNs)/1e6
			ht.execMs = append(ht.execMs, exec)
			ht.queueMs = append(ht.queueMs, queue)
			ht.outsideMs = append(ht.outsideMs, float64(lat)/1e6-exec-queue)
		}
	}
	p.wall = time.Since(start)
	return p
}

// runServe is serve-slab-64: the offt-serve binary as a child process on
// loopback, driven by two closed-loop HTTP clients that alternate forward
// and backward 64³ p=4 slab NEW transforms on one plan key.
func runServe(r *run) error {
	r.noteShape(serveN, serveRanks)
	bodies := make([]serveBodies, serveClients)
	for i := range bodies {
		var err error
		if bodies[i], err = newServeBodies(r.seed, i); err != nil {
			return err
		}
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	var ch *child
	stopChild := func() {
		ch.stop()
		client.CloseIdleConnections()
	}
	out := make([]complex128, bodies[0].c.elements)
	if _, err := r.setups(func() (func(), error) {
		var err error
		if ch, err = startChild(r.serveBin); err != nil {
			return nil, err
		}
		if err = waitHealthy(client, ch.base); err == nil {
			var buf bytes.Buffer
			if _, err = exchange(client, ch.base, bodies[0].forward, &buf); err == nil {
				if _, err = decodeResponse(buf.Bytes(), out); err == nil {
					err = bodies[0].c.checkForward(out)
				}
			}
			r.check(err)
		}
		if err != nil {
			stopChild()
			return nil, err
		}
		return stopChild, nil
	}); err != nil {
		return err
	}

	var traced headerTimes
	var tracedMeanMs float64
	err := r.untracedThenTraced(func(d time.Duration, tr bool) (phase, error) {
		var hits, misses int64
		if tr {
			var err error
			if hits, misses, err = planCacheCounters(client, ch.base); err != nil {
				return phase{}, err
			}
		}
		var wg sync.WaitGroup
		phases := make([]phase, serveClients)
		times := make([]headerTimes, serveClients)
		for i := range phases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ht *headerTimes
				if tr {
					ht = &times[i]
				}
				phases[i] = serveClient(r, client, ch.base, bodies[i], d, ht)
			}()
		}
		wg.Wait()
		var p phase
		for _, ph := range phases {
			p.merge(ph)
			p.wall = max(p.wall, ph.wall)
		}
		if !tr {
			return p, nil
		}
		for _, t := range times {
			traced.execMs = append(traced.execMs, t.execMs...)
			traced.queueMs = append(traced.queueMs, t.queueMs...)
			traced.outsideMs = append(traced.outsideMs, t.outsideMs...)
		}
		hits1, misses1, err := planCacheCounters(client, ch.base)
		recordServeHeaders(r, traced, hits1-hits, misses1-misses)
		tracedMeanMs = mean(p.latMs)
		return p, err
	})
	rss, rerr := peakRSSMiB(strconv.Itoa(ch.cmd.Process.Pid))
	stopChild()
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	r.e2e["peak_rss_mib"] = []float64{rss}
	if !r.trace {
		return failIfWrong(r, nil)
	}
	if err := probeServeLayers(r, bodies[0]); err != nil {
		return err
	}
	if _, err := probePlan(r, bodies[0].c, serveRanks, 0, 10); err != nil {
		return err
	}
	if err := probeSlabLayers(r, serveN, serveRanks); err != nil {
		return err
	}
	// The budget adds the server-side layers of a mean request and divides
	// by the mean client latency; the rest is HTTP, loopback and scheduling.
	layers := mean(traced.queueMs) + mean(traced.execMs) +
		r.layer["serve.decode_ms"] + r.layer["serve.registry_ms"] + r.layer["serve.encode_ms"]
	r.set("budget.coverage", layers/tracedMeanMs, len(traced.execMs))
	return failIfWrong(r, nil)
}

func recordServeHeaders(r *run, ht headerTimes, hits, misses int64) {
	n := len(ht.execMs)
	r.set("serve.exec_ms_p50", quantile(ht.execMs, 0.5), n)
	r.set("serve.queue_ms_p50", quantile(ht.queueMs, 0.5), n)
	r.set("serve.outside_exec_ms_p50", quantile(ht.outsideMs, 0.5), n)
	if hits+misses > 0 {
		r.set("serve.plan_cache_hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
	}
}

func planCacheCounters(client *http.Client, base string) (hits, misses int64, err error) {
	resp, err := client.Get("http://" + base + "/metrics.json")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, fmt.Errorf("decode /metrics.json: %w", err)
	}
	return snap.Counters["serve.plan_cache.hits"], snap.Counters["serve.plan_cache.misses"], nil
}

// batchMs times reps calls of a sub-microsecond operation per sample, so
// each sample is well above the clock's resolution, and returns the median
// per-call time in ms.
func batchMs(fn func()) float64 {
	const reps = 1000
	return quantile(timeMs(probeReps, func() {
		for i := 0; i < reps; i++ {
			fn()
		}
	}), 0.5) / reps
}

// probeServeLayers times the serve layers from outside, in process, on the
// workload's own request bodies: wire decode and encode, admission,
// registry hits and the whole handler.
func probeServeLayers(r *run, b serveBodies) error {
	out := make([]complex128, b.c.elements)
	decode := timeMs(probeReps, func() {
		rd := bytes.NewReader(b.forward)
		var req serve.TransformRequest
		if err := serve.ReadHeader(rd, &req); err == nil {
			_ = serve.ReadPayloadInto(rd, out)
		}
	})
	if !slices.Equal(out, b.c.x) {
		return fmt.Errorf("decode probe: payload does not round-trip the wire format")
	}
	r.set("serve.decode_ms", quantile(decode, 0.5), probeReps)

	var enc bytes.Buffer
	enc.Grow(len(b.back))
	resp := serve.TransformResponse{Status: "ok", PlanKey: "probe", CacheHit: true, Elements: b.c.elements}
	r.set("serve.encode_ms", quantile(timeMs(probeReps, func() {
		enc.Reset()
		if err := serve.WriteHeader(&enc, resp); err == nil {
			_ = serve.WritePayload(&enc, b.c.spec)
		}
	}), 0.5), probeReps)

	ctx := context.Background()
	adm := serve.NewAdmission(16, 64, nil)
	r.set("serve.admission_ms", batchMs(func() {
		if adm.Acquire(ctx, serveRanks) == nil {
			adm.Release(serveRanks)
		}
	}), probeReps)

	key, err := offt.DescribePlan(offt.WithGrid(serveN, serveN, serveN), offt.WithRanks(serveRanks),
		offt.WithDecomp(offt.Slab), offt.WithVariant(offt.NEW))
	if err != nil {
		return err
	}
	reg := serve.NewRegistry(8, nil)
	build := func() (*offt.Plan, error) { return offt.NewPlanFrom(key) }
	e, err := reg.Acquire(ctx, key, build)
	if err != nil {
		return err
	}
	reg.Release(e)
	r.set("serve.registry_ms", batchMs(func() {
		if e, err := reg.Acquire(ctx, key, build); err == nil {
			reg.Release(e)
		}
	}), probeReps)
	if err := reg.CloseAll(); err != nil {
		return err
	}

	srv := serve.New(serve.Config{})
	defer func() { _ = srv.Drain(ctx) }()
	h := srv.Handler()
	var handler []float64
	for i := 0; i <= 2*probeReps; i++ {
		body, check := b.forward, b.c.checkForward
		if i%2 == 1 {
			body, check = b.back, b.c.checkBackward
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/transform", bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := float64(time.Since(t0)) / 1e6
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: HTTP %d", rec.Code)
		}
		if _, err := decodeResponse(rec.Body.Bytes(), out); err != nil {
			return err
		}
		if !r.check(check(out)) {
			continue
		}
		if i > 0 { // the first request builds the plan
			handler = append(handler, d)
		}
	}
	r.set("serve.handler_ms", quantile(handler, 0.5), len(handler))
	return nil
}
