package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/events"
	"repro/internal/tier"
	"repro/pkg/api"
	"repro/pkg/client"
)

// bigAnswer is a well-formed Infer answer of an online-infer op's size
// (≈ 40 KB), in a layout no encoder here would produce: relayed bytes that
// come out like this were not re-encoded on the way.
var bigAnswer = func() string {
	var b strings.Builder
	b.WriteString("{ \"batchSizes\":[1],\n  \"outputs\" : [ {\"data\":[")
	for i := 0; i < 2048; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("0.1234567890123456e-1")
	}
	b.WriteString("], \"shape\":[2048]} ],\"version\":3, \"model\":\"m\" }  \n")
	return b.String()
}()

// fakeReplica serves handle as /v2/infer and counts the connections it
// accepts.
func fakeReplica(t *testing.T, handle http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/infer" {
			http.NotFound(w, r)
			return
		}
		handle(w, r)
	}))
	opened := countConns(ts)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, opened
}

func countConns(ts *httptest.Server) *atomic.Int64 {
	var opened atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	return &opened
}

// TestRoutedRelayGolden is the pass-through golden: the replica
// receives the request bytes the caller sent and the caller the answer
// bytes the replica sent, neither parsed and re-encoded on the way, over
// one connection per hop however many calls are made.
func TestRoutedRelayGolden(t *testing.T) {
	const request = " {\"items\" :[ {\"data\":[1e0,2.50,-0],\"shape\":[3]} ],\n\"unknown\":{\"model\":\"x\"}, \"model\": \"m\"}\n"
	var got atomic.Value
	replica, replicaConns := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got.Store(string(body))
		io.WriteString(w, bigAnswer)
	})
	rt := newTestRouter(t, []string{replica.URL})
	front := httptest.NewUnstartedServer(rt.Handler())
	routerConns := countConns(front)
	front.Start()
	defer front.Close()

	hc := &http.Client{}
	for i := 0; i < 50; i++ {
		resp, err := hc.Post(front.URL+"/v2/infer", "application/json", strings.NewReader(request))
		if err != nil {
			t.Fatal(err)
		}
		relayed, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d, %v", i, resp.StatusCode, err)
		}
		if string(relayed) != bigAnswer {
			t.Fatalf("call %d: the caller got %d bytes that are not the replica's %d", i, len(relayed), len(bigAnswer))
		}
		if got.Load() != request {
			t.Fatalf("call %d: the replica got %q, the caller sent %q", i, got.Load(), request)
		}
	}
	if r, p := routerConns.Load(), replicaConns.Load(); r != 1 || p != 1 {
		t.Fatalf("50 calls opened %d connections to the router and %d to the replica, want 1 and 1", r, p)
	}

	// The SDK on top: same single connection per hop, and the odd layout
	// decodes to the values it spells.
	front2 := httptest.NewUnstartedServer(rt.Handler())
	sdkConns := countConns(front2)
	front2.Start()
	defer front2.Close()
	c := client.New(front2.URL)
	for i := 0; i < 50; i++ {
		out, err := c.Infer(context.Background(), &api.InferRequest{Model: "m", Items: []api.InferItem{{Shape: []int{1}, Data: []float64{1}}}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Version != 3 || len(out.Outputs) != 1 || len(out.Outputs[0].Data) != 2048 || out.Outputs[0].Data[2047] != 0.1234567890123456e-1 {
			t.Fatalf("call %d: decoded %+v", i, out)
		}
	}
	if s, p := sdkConns.Load(), replicaConns.Load(); s != 1 || p != 1 {
		t.Fatalf("50 SDK calls opened %d connections to the router, and the replica has seen %d in all, want 1 and 1", s, p)
	}
}

// TestRoutedFailoverAfterTruncatedAnswer: the router has an answer whole
// before it relays the first byte, so a candidate that dies halfway through
// a 200 is failed over from like one that never answered — the caller sees
// the next candidate's answer and nothing of the first's.
func TestRoutedFailoverAfterTruncatedAnswer(t *testing.T) {
	truncating := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "4096") // promises more than it sends
		io.WriteString(w, bigAnswer[:2048])
	}
	whole := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, bigAnswer)
	}
	// Which URL the ring ranks first for "m" is not known before the router
	// exists: both replicas start out answering, then the primary is made
	// the one that truncates.
	var primaryURL atomic.Value
	primaryURL.Store("")
	handler := func(self *string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if primaryURL.Load() == *self {
				truncating(w, r)
				return
			}
			whole(w, r)
		}
	}
	var urlA, urlB string
	a, _ := fakeReplica(t, handler(&urlA))
	b, _ := fakeReplica(t, handler(&urlB))
	urlA, urlB = a.URL, b.URL
	rt := newTestRouter(t, []string{urlA, urlB})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	cands := rt.ReplicaSet().Sequence("m", 2)
	if len(cands) != 2 {
		t.Fatalf("%d candidates for m, want 2", len(cands))
	}
	primaryURL.Store(cands[0].URL)

	resp, err := http.Post(front.URL+"/v2/infer", "application/json", strings.NewReader(`{"model":"m","items":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	relayed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(relayed) != bigAnswer {
		t.Fatalf("status %d, %d bytes, %v; want the second candidate's %d-byte answer", resp.StatusCode, len(relayed), err, len(bigAnswer))
	}
	if n := rt.Metrics().FailoversTotal(); n != 1 {
		t.Fatalf("%d failovers, want 1", n)
	}
	failovers := rt.Journal().Payload(events.Query{Limit: 16, Type: events.TypeFailover}).Events
	if len(failovers) != 1 || failovers[0].Attrs["replica"] != cands[1].ID {
		t.Fatalf("failover events = %+v, want one, to %s", failovers, cands[1].ID)
	}
	if n := rt.Metrics().RoutedTotal(cands[1].ID); n != 1 {
		t.Fatalf("%d requests counted as routed to %s, want 1", n, cands[1].ID)
	}
}

// TestRoutedErrorsStayTyped: what the router does not parse it cannot
// vouch for, so the replica's verdict has to come back as it was given —
// a body that is JSON but not a request is the replica's typed 400, an
// unknown model its typed 404 — while a body that is not JSON at all, or
// whose key is not a string, is refused by the router and never forwarded.
func TestRoutedErrorsStayTyped(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	p := startReplica(t, "", ckpt)
	defer p.Close(context.Background())
	rt := newTestRouter(t, []string{p.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		code       api.ErrorCode
		forwarded  bool
	}{
		{"not JSON", `{"model":"m","items":[`, http.StatusBadRequest, api.CodeInvalidArgument, false},
		{"key of the wrong type", `{"model":7}`, http.StatusBadRequest, api.CodeInvalidArgument, false},
		{"items of the wrong type", `{"model":"m","items":"all of them"}`, http.StatusBadRequest, api.CodeInvalidArgument, true},
		{"unknown model", `{"model":"nope","items":[{"shape":[3,4],"data":[1,2,3,4,5,6,7,8,9,10,11,12]}]}`, http.StatusNotFound, api.CodeModelNotFound, true},
	} {
		traceID := api.NewTraceID()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v2/infer", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TraceHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || env.Error == nil || env.Error.Code != tc.code {
			t.Errorf("%s: status %d, envelope %+v, %v; want %d %s", tc.name, resp.StatusCode, env.Error, err, tc.status, tc.code)
		}
		// The replica records its server span as its handler unwinds, which
		// the router's answer to the caller does not wait for.
		reached := func() bool { return len(p.Server.Tracer().Spans(traceID)) > 0 }
		if tc.forwarded {
			waitFor(t, tc.name+": the replica's span", 3*time.Second, reached)
		} else if reached() {
			t.Errorf("%s: forwarded to the replica", tc.name)
		}
	}
}

// spaces is an endless body of JSON whitespace, generated as it is read.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizeBodyRefused: a body over tier.MaxBody is the typed
// invalid_argument naming the limit on both tiers — refused on its declared
// length before a byte of it is read, cut off at the limit when chunked —
// and the server goes on answering.
func TestOversizeBodyRefused(t *testing.T) {
	_, ckpt := newCheckpoint(t)
	p := startReplica(t, "", ckpt)
	defer p.Close(context.Background())
	rt := newTestRouter(t, []string{p.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	refused := func(name string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error == nil ||
			env.Error.Code != api.CodeInvalidArgument || !strings.Contains(env.Error.Message, "64 MiB") {
			t.Errorf("%s: status %d, envelope %+v, %v; want 400 invalid_argument naming the limit",
				name, resp.StatusCode, env.Error, err)
		}
	}
	hc := &http.Client{Timeout: time.Minute}
	for _, tc := range []struct{ name, url string }{{"serve", p.URL}, {"router", front.URL}} {
		// Declared: the headers alone, so nothing but them can have been read.
		conn, err := net.Dial("tcp", strings.TrimPrefix(tc.url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(time.Minute))
		fmt.Fprintf(conn, "POST /v2/infer HTTP/1.1\r\nHost: sickle\r\nContent-Length: %d\r\n\r\n", tier.MaxBody+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		refused(tc.name+", declared length", resp, err)
		conn.Close()

		resp, err = hc.Post(tc.url+"/v2/infer", "application/json", io.LimitReader(spaces{}, tier.MaxBody+1))
		refused(tc.name+", chunked", resp, err)

		req := &api.InferRequest{Model: "m", Items: []api.InferItem{randomItem(rand.New(rand.NewSource(5)))}}
		if _, err := client.New(tc.url).Infer(context.Background(), req); err != nil {
			t.Errorf("%s: the request after the refusals: %v", tc.name, err)
		}
	}
}

// TestInferHopAllocs guards what one Infer costs across both hops — SDK →
// router → replica → batcher and back, all in this process — now that each
// hop moves the payload once. Ceilings sit ≈ 20 % above what the
// pass-through measured, 340 objects and 25 KiB (the typed router: 481 and
// 36, on these 12-float items; the payload-sized costs are the ledger's).
func TestInferHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, ckpt := newCheckpoint(t)
	p := startReplica(t, "", ckpt)
	defer p.Close(context.Background())
	rt := newTestRouter(t, []string{p.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	rng := rand.New(rand.NewSource(23))
	req := &api.InferRequest{Model: "m"}
	for i := 0; i < 4; i++ {
		req.Items = append(req.Items, randomItem(rng))
	}
	c := client.New(front.URL)
	call := func() {
		if _, err := c.Infer(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // connections, pools and the batcher's dispatcher
		call()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, call)
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (runs + 1)
	t.Logf("%.0f objects, %.1f KiB per Infer", objects, kib)
	if objects > 410 || kib > 30 {
		t.Fatalf("one Infer across both hops: %.0f objects, %.1f KiB; want at most 410 and 30", objects, kib)
	}
}

// TestRoutedInferContentTypes: through the router to a two-replica fleet,
// the same request sent as JSON and as the binary tensor frame comes back
// bit-identical to the serial reference under one Version, each answer in
// its request's content type; an unknown model sent as a frame still gets
// the typed JSON envelope.
func TestRoutedInferContentTypes(t *testing.T) {
	ref, ckpt := newCheckpoint(t)
	var urls []string
	for i := 0; i < 2; i++ {
		p := startReplica(t, "", ckpt)
		defer p.Close(context.Background())
		urls = append(urls, p.URL)
	}
	rt := newTestRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	rng := rand.New(rand.NewSource(41))
	req := &api.InferRequest{Model: "m"}
	for i := 0; i < 4; i++ {
		req.Items = append(req.Items, randomItem(rng))
	}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	post := func(contentType string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v2/infer", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	var versions []int
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{{"application/json", jsonBody}, {api.ContentTypeTensors, frame}} {
		resp, raw := post(tc.contentType, tc.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != tc.contentType {
			t.Fatalf("%s: status %d, answered as %q", tc.contentType, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out api.InferResponse
		if err := api.Unmarshal(tc.contentType, raw, &out); err != nil {
			t.Fatalf("%s: %v", tc.contentType, err)
		}
		if len(out.Outputs) != len(req.Items) {
			t.Fatalf("%s: %d outputs for %d items", tc.contentType, len(out.Outputs), len(req.Items))
		}
		for i, it := range req.Items {
			got, want := out.Outputs[i].Data, expect(ref, it)
			for k := range want {
				if len(got) != len(want) || math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: item %d = %v, serial reference %v", tc.contentType, i, got, want)
				}
			}
		}
		versions = append(versions, out.Version)
	}
	if versions[0] != versions[1] {
		t.Fatalf("Version %d as JSON, %d as a frame", versions[0], versions[1])
	}

	unknown, err := (&api.InferRequest{Model: "nope", Items: req.Items}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(api.ContentTypeTensors, unknown)
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != http.StatusNotFound ||
		env.Error == nil || env.Error.Code != api.CodeModelNotFound || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("unknown model as a frame: status %d %q, %s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
}

// TestRoutedKeyIsFrameModel: the routing key the router reads off the
// front of a frame is the Model a full decode yields, for any name.
func TestRoutedKeyIsFrameModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	names := []string{"", "m", "modèle-ü-模型", strings.Repeat("k", 1024)}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(1025))
		rng.Read(b)
		names = append(names, string(b))
		runes := make([]rune, rng.Intn(64))
		for k := range runes {
			runes[k] = rune(rng.Intn(0x10ffff))
		}
		names = append(names, string(runes))
	}
	for _, name := range names {
		items := make([]api.InferItem, rng.Intn(3))
		for k := range items {
			items[k] = randomItem(rng)
		}
		frame, err := (&api.InferRequest{Model: name, Items: items}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var key inferKey
		var full api.InferRequest
		if err := api.Unmarshal(api.ContentTypeTensors, frame, &key); err != nil {
			t.Fatalf("routing key of %q: %v", name, err)
		}
		if err := full.UnmarshalBinary(frame); err != nil || key.Model != full.Model || full.Model != name {
			t.Fatalf("routing key %q, full decode %q (%v), sent %q", key.Model, full.Model, err, name)
		}
	}
}

// FuzzRoutingKey: for any body under either content type, whenever the
// typed decode of an infer or a model registration succeeds, the router's
// partial decode succeeds too and yields the same routing key — inferKey
// from JSON or off the front of a tensor frame, registerKey from JSON (a
// registration has no frame, so it is JSON under both types). Seed corpus
// in testdata/fuzz/FuzzRoutingKey.
func FuzzRoutingKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, tensors bool) {
		ct := "application/json"
		if tensors {
			ct = api.ContentTypeTensors
		}
		var infer api.InferRequest
		if api.Unmarshal(ct, body, &infer) == nil {
			var k inferKey
			if err := api.Unmarshal(ct, body, &k); err != nil || k.Model != infer.Model {
				t.Fatalf("%s %q: infer decodes model %q, the router routes by %q (%v)", ct, body, infer.Model, k.Model, err)
			}
		}
		var reg api.RegisterModelRequest
		if api.Unmarshal(ct, body, &reg) == nil {
			var k registerKey
			if err := api.Unmarshal(ct, body, &k); err != nil || k.Name != reg.Name {
				t.Fatalf("%s %q: registration decodes name %q, the router routes by %q (%v)", ct, body, reg.Name, k.Name, err)
			}
		}
	})
}

// TestShutdownClosesReplicaConnections: a router that has shut down holds
// no connection to a replica open, so the replica's own graceful shutdown
// does not wait on an idle connection the router keeps pooled.
func TestShutdownClosesReplicaConnections(t *testing.T) {
	var open atomic.Int64
	replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, bigAnswer)
	}))
	replica.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	replica.Start()
	defer replica.Close()

	rt := newTestRouter(t, []string{replica.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v2/infer", "application/json",
		strings.NewReader(`{"model":"m","items":[{"data":[1],"shape":[1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed call: status %d", resp.StatusCode)
	}
	if n := open.Load(); n != 1 {
		t.Fatalf("one routed call left %d connections to the replica open, want 1", n)
	}

	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("1 s after the router's Shutdown, %d connections to the replica are still open", open.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
