package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"offt/internal/telemetry"
)

// TestShardRingConsistentAndBalanced: placement is a pure function of the
// canonical URL set — every replica computes the same owner regardless of
// peer-list order or URL spelling — and the vnode ring spreads keys
// across the fleet instead of piling them on one replica.
func TestShardRingConsistentAndBalanced(t *testing.T) {
	urls := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"}
	a, err := NewShardRouter(ShardConfig{Self: urls[0], Peers: urls}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed peer order, bare host:port spelling, trailing slash: the
	// ring must come out identical.
	b, err := NewShardRouter(ShardConfig{
		Self:  "10.0.0.3:8080",
		Peers: []string{"10.0.0.3:8080", "http://10.0.0.2:8080/", "10.0.0.1:8080"},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 1000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("plan-key-%d", i)
		oa, ob := a.Owner(k), b.Owner(k)
		if oa != ob {
			t.Fatalf("key %q: replica views disagree (%s vs %s)", k, oa, ob)
		}
		counts[oa]++
	}
	for _, u := range urls {
		if frac := float64(counts[u]) / keys; frac < 0.10 {
			t.Fatalf("replica %s owns only %.0f%% of keys: %v", u, 100*frac, counts)
		}
	}
}

func TestShardRejectsBadPeerURL(t *testing.T) {
	if _, err := NewShardRouter(ShardConfig{Self: "ftp://x:1", Peers: []string{"ftp://x:1"}}, nil, nil); err == nil {
		t.Fatal("ftp scheme accepted")
	}
	if _, err := NewShardRouter(ShardConfig{Self: ""}, nil, nil); err == nil {
		t.Fatal("empty self accepted")
	}
}

// startShardFleet boots n sharded servers on real loopback listeners
// (the router probes and forwards over real HTTP) and returns them with
// their base URLs. Servers drain on cleanup.
func startShardFleet(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		s := New(Config{Telemetry: telemetry.NewRegistry()})
		if err := s.EnableShard(ShardConfig{
			Self: urls[i], Peers: urls,
			HealthInterval: 100 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go func(ln net.Listener) { _ = hs.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
			_ = hs.Close()
		})
		srvs[i] = s
	}
	return srvs, urls
}

// requestOwnedBy scans grid sizes until it finds a transform whose plan
// key the ring places on wantURL.
func requestOwnedBy(t *testing.T, s *Server, wantURL string) TransformRequest {
	t.Helper()
	for n := 4; n <= 40; n += 2 {
		req := TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}
		spec, err := s.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		if s.shard.Owner(spec.key.String()) == wantURL {
			return TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}
		}
	}
	t.Fatalf("no grid size in [4,40] hashes to %s", wantURL)
	return TransformRequest{}
}

// postShard sends one wire-format transform and returns the status,
// decoded response, payload, and response headers.
func postShard(t *testing.T, url string, req TransformRequest, payload []complex128, hdr map[string]string) (int, TransformResponse, []complex128, http.Header) {
	t.Helper()
	var body bytes.Buffer
	if err := WriteHeader(&body, req); err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		if err := WritePayload(&body, payload); err != nil {
			t.Fatal(err)
		}
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/transform", &body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(hres.Body)
		t.Logf("non-200 body: %s", b)
		return hres.StatusCode, TransformResponse{}, nil, hres.Header
	}
	var resp TransformResponse
	if err := ReadHeader(hres.Body, &resp); err != nil {
		t.Fatal(err)
	}
	var out []complex128
	if resp.Elements > 0 {
		out = make([]complex128, resp.Elements)
		if err := ReadPayloadInto(hres.Body, out); err != nil {
			t.Fatal(err)
		}
	}
	return hres.StatusCode, resp, out, hres.Header
}

// TestShardForwardsToOwner: a request whose key another replica owns is
// forwarded there over the wire format, byte-identical to asking the
// owner directly, with the client's X-Request-Id crossing the hop intact
// (the owner's flight recorder files the request under the client's ID).
func TestShardForwardsToOwner(t *testing.T) {
	srvs, urls := startShardFleet(t, 2)
	req := requestOwnedBy(t, srvs[0], urls[1])
	data := randField(req.Nx*req.Ny*req.Nz, 11)

	const reqID = "shard-trace-0001"
	code, resp, out, hdr := postShard(t, urls[0], req, data, map[string]string{"X-Request-Id": reqID})
	if code != http.StatusOK {
		t.Fatalf("forwarded transform: HTTP %d", code)
	}
	if got := hdr.Get(shardViaHeader); got != urls[1] {
		t.Fatalf("%s = %q, want owner %s", shardViaHeader, got, urls[1])
	}
	if got := hdr.Get("X-Request-Id"); got != reqID {
		t.Fatalf("X-Request-Id not echoed across the hop: %q", got)
	}
	// The owner files its flight record in the handler's deferred finish,
	// after the response body is written, so the relayed response can
	// reach the client first.
	for deadline := time.Now().Add(2 * time.Second); srvs[1].Flight().Get(reqID) == nil; {
		if time.Now().After(deadline) {
			t.Fatalf("owner's flight recorder has no record for %s: trace context was dropped", reqID)
		}
		time.Sleep(time.Millisecond)
	}
	if srvs[1].shard.localC.Value() == 0 {
		t.Fatal("owner did not count the forwarded request as local work")
	}
	if srvs[0].shard.forwardC.Value() == 0 {
		t.Fatal("router did not count the forward")
	}

	// Direct to the owner: bit-identical spectrum (same plan, same input).
	code, _, direct, _ := postShard(t, urls[1], req, data, nil)
	if code != http.StatusOK {
		t.Fatalf("direct transform: HTTP %d", code)
	}
	if len(direct) != len(out) {
		t.Fatalf("length mismatch: forwarded %d, direct %d", len(out), len(direct))
	}
	for i := range out {
		if out[i] != direct[i] {
			t.Fatalf("element %d: forwarded %v != direct %v", i, out[i], direct[i])
		}
	}
	if resp.Elements != len(data) {
		t.Fatalf("forwarded response reports %d elements, want %d", resp.Elements, len(data))
	}
}

// TestShardLoopGuard: a request already marked forwarded executes
// locally even on a non-owner, so divergent health views cannot bounce a
// request between replicas forever.
func TestShardLoopGuard(t *testing.T) {
	srvs, urls := startShardFleet(t, 2)
	req := requestOwnedBy(t, srvs[0], urls[1]) // rank 0 is NOT the owner
	data := randField(req.Nx*req.Ny*req.Nz, 3)
	code, _, _, hdr := postShard(t, urls[0], req, data, map[string]string{shardForwardedHeader: "1"})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if via := hdr.Get(shardViaHeader); via != "" {
		t.Fatalf("forwarded request was re-forwarded via %s", via)
	}
	if srvs[0].shard.forwardC.Value() != 0 {
		t.Fatal("loop guard did not stop a second hop")
	}
}

// TestShardPeerDownFallsBackToSelf: when the owner is unreachable the
// router retries down-ring and ultimately serves the request itself —
// one healthy replica keeps the whole key space answering.
func TestShardPeerDownFallsBackToSelf(t *testing.T) {
	// Reserve-and-release a port so the "peer" URL is a real address
	// with nothing listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	liveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liveURL := "http://" + liveLn.Addr().String()
	s := New(Config{Telemetry: telemetry.NewRegistry()})
	if err := s.EnableShard(ShardConfig{
		Self: liveURL, Peers: []string{liveURL, deadURL},
		HealthInterval: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(liveLn) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		_ = hs.Close()
	}()

	req := requestOwnedBy(t, s, deadURL)
	data := randField(req.Nx*req.Ny*req.Nz, 5)
	code, _, out, hdr := postShard(t, liveURL, req, data, nil)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d with the owner down", code)
	}
	if via := hdr.Get(shardViaHeader); via != "" {
		t.Fatalf("request claims to have executed on %s, but that peer is down", via)
	}
	if len(out) != len(data) {
		t.Fatalf("got %d elements, want %d", len(out), len(data))
	}
	if s.shard.localC.Value() == 0 {
		t.Fatal("local fallback not counted")
	}
}

// TestShardDrainReroutes: SIGTERM semantics — a draining replica stops
// executing client-originated work but keeps routing it to live peers,
// so a rolling restart sheds nothing.
func TestShardDrainReroutes(t *testing.T) {
	srvs, urls := startShardFleet(t, 2)
	req := requestOwnedBy(t, srvs[0], urls[0]) // rank 0 IS the owner
	data := randField(req.Nx*req.Ny*req.Nz, 9)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvs[0].Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	code, _, out, hdr := postShard(t, urls[0], req, data, nil)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d from a draining replica with a live peer", code)
	}
	if got := hdr.Get(shardViaHeader); got != urls[1] {
		t.Fatalf("drained replica executed locally (via=%q), want reroute to %s", got, urls[1])
	}
	if len(out) != len(data) {
		t.Fatalf("got %d elements, want %d", len(out), len(data))
	}
	if srvs[0].shard.reroutedC.Value() == 0 {
		t.Fatal("drain reroute not counted")
	}

	// Once the second replica drains too, the fleet is out of capacity:
	// the request sheds with the draining 503, not a hang.
	if err := srvs[1].Drain(ctx); err != nil {
		t.Fatalf("drain second: %v", err)
	}
	// The probe loop on rank 0 is stopped (Drain), so mark rank 1's
	// state the way a probe would have.
	for _, pe := range srvs[0].shard.peers {
		if pe.url == urls[1] {
			pe.set(true, true, "")
		}
	}
	code, _, _, _ = postShard(t, urls[0], req, data, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fully drained fleet answered HTTP %d, want 503", code)
	}
}

// TestShardHealthzSection: /healthz gains the ring's peer table so an
// operator can see the fleet from any replica.
func TestShardHealthzSection(t *testing.T) {
	srvs, urls := startShardFleet(t, 2)
	_ = srvs
	resp, err := http.Get(urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"shard"`, `"self"`, urls[0], urls[1]} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("healthz missing %q:\n%s", want, b)
		}
	}
}
