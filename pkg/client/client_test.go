package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
)

// TestRetryOnOverloaded: typed 429 responses are retried with backoff
// until the server recovers; the successful payload comes back.
func TestRetryOnOverloaded(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{
				Error: api.Errorf(api.CodeOverloaded, "busy")})
			return
		}
		json.NewEncoder(w).Encode(api.InferResponse{Model: "m", Version: 3})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(3, time.Millisecond))
	out, err := c.Infer(context.Background(), &api.InferRequest{Model: "m"})
	if err != nil {
		t.Fatalf("Infer after retries: %v", err)
	}
	if out.Version != 3 || calls.Load() != 3 {
		t.Fatalf("version %d after %d calls, want 3 after 3", out.Version, calls.Load())
	}
}

// TestRetryExhaustion: the typed overloaded error surfaces (with its code)
// once retries run out.
func TestRetryExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Errorf(api.CodeOverloaded, "busy").WithRetryAfter(0)})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(1, time.Millisecond))
	_, err := c.Infer(context.Background(), &api.InferRequest{Model: "m"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
		t.Fatalf("err = %v, want overloaded", err)
	}
}

// TestRetryHonorsContext: cancellation during backoff returns promptly
// with the typed canceled code instead of sleeping out the delay.
func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Errorf(api.CodeOverloaded, "busy").WithRetryAfter(30)})
	}))
	defer ts.Close()

	// The caller gives up once the first 429 is in the client's hands: the
	// body is buffered before cancel, so the attempt decodes as overloaded
	// and the retry loop enters its 30 s back-off with ctx already done.
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		cancel()
		return resp, nil
	})
	c := New(ts.URL, WithRetry(3, time.Millisecond), WithHTTPClient(&http.Client{Transport: rt}))
	t0 := time.Now()
	_, err := c.Infer(ctx, &api.InferRequest{Model: "m"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeCanceled {
		t.Fatalf("err = %v, want canceled", err)
	}
	if time.Since(t0) > 5*time.Second {
		t.Fatal("retry loop ignored the canceled context")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestLegacyErrorDecode: a v1-style {"error":"msg"} failure still becomes
// a typed error, with the code recovered from the HTTP status.
func TestLegacyErrorDecode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown model \"x\""})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(0, 0))
	_, err := c.Infer(context.Background(), &api.InferRequest{Model: "x"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("err = %v, want not_found from bare 404", err)
	}
}

// TestNegotiateUnsupported: a server without /api/version yields the
// typed unsupported_version error.
func TestNegotiateUnsupported(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL)
	_, err := c.Negotiate(context.Background())
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnsupportedVersion {
		t.Fatalf("err = %v, want unsupported_version", err)
	}
}

// countConns makes ts count the connections it accepts. Call before Start.
func countConns(ts *httptest.Server) *atomic.Int64 {
	var opened atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	return &opened
}

// TestClientReusesConnection: an answer is read to EOF before its body is
// closed, so net/http keeps the connection. Decoding straight off the
// stream stopped at the value's last byte, and for a chunked answer large
// enough to be read past the connection's 4 KiB buffer (≈ 40 KB here, an
// Infer answer's size) that is short of the terminating chunk: the
// transport discarded the connection and every Infer dialled anew.
func TestClientReusesConnection(t *testing.T) {
	answer := api.InferResponse{Model: "m", Version: 1,
		Outputs: []api.InferItem{{Shape: []int{2048}, Data: make([]float64, 2048)}}, BatchSizes: []int{1}}
	for i := range answer.Outputs[0].Data {
		answer.Outputs[0].Data[i] = float64(i) / 3
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(answer)
	}))
	opened := countConns(ts)
	ts.Start()
	defer ts.Close()

	c := New(ts.URL)
	for i := 0; i < 50; i++ {
		out, err := c.Infer(context.Background(), &api.InferRequest{Model: "m"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*out, answer) {
			t.Fatalf("call %d: answer changed on the way", i)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("50 sequential Infer calls opened %d connections, want 1", n)
	}
}

// TestForwardTypesFailures: the raw round trip types what it could not
// read like the typed calls do — a 200 cut short is unavailable, and a
// failure status is the envelope it carries.
func TestForwardTypesFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/short":
			w.Header().Set("Content-Length", "100")
			w.Write([]byte(`{"model":`))
		case "/busy":
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Errorf(api.CodeOverloaded, "busy").WithRetryAfter(7)})
		default:
			io.Copy(w, r.Body)
		}
	}))
	defer ts.Close()
	c := New(ts.URL)
	ex := NewExchange()
	defer ex.Release()
	ex.Request.WriteString(`{"echo":true}`)

	if err := c.Forward(context.Background(), http.MethodPost, "/echo", ex); err != nil || ex.Status != 200 || ex.Answer.String() != `{"echo":true}` {
		t.Fatalf("echo = %d %q, %v", ex.Status, ex.Answer.String(), err)
	}
	err := c.Forward(context.Background(), http.MethodPost, "/short", ex)
	if ae := api.AsError(err); err == nil || ae.Code != api.CodeUnavailable {
		t.Fatalf("truncated 200 = %v, want unavailable", err)
	}
	err = c.Forward(context.Background(), http.MethodPost, "/busy", ex)
	if ae := api.AsError(err); err == nil || ae.Code != api.CodeOverloaded || ae.RetryAfterSeconds != 7 {
		t.Fatalf("429 envelope = %v, want overloaded with its retry hint", err)
	}
	if ex.Request.String() != `{"echo":true}` {
		t.Fatalf("request bytes changed across attempts: %q", ex.Request.String())
	}
}

// TestExchangeNotRecycledWhileLent: a transport that has not closed the
// request body yet may still be reading it, so Release must leave such an
// exchange to the collector instead of handing its buffer to the next call.
func TestExchangeNotRecycledWhileLent(t *testing.T) {
	ex := new(Exchange) // not from the pool: the test must know where it goes
	ex.Request.WriteString("payload")
	body := ex.body()
	ex.Release()
	if ex.Request.String() != "payload" {
		t.Fatal("Release recycled a request buffer a transport still holds")
	}
	body.Close()
	body.Close() // a transport may close twice
	ex.Release()
	if ex.Request.Len() != 0 || ex.lent.Load() != 0 {
		t.Fatalf("after the body closed: %d request bytes, %d lent, want a reset exchange", ex.Request.Len(), ex.lent.Load())
	}
}
