// Package client is the Go SDK for a running sickle-serve instance: typed
// methods over the pkg/api wire contract, per-call context/deadline
// propagation, automatic retry with exponential backoff on typed
// overloaded responses (honoring Retry-After), and submit/wait/cancel
// helpers for the asynchronous job surface.
//
// Minimal use:
//
//	c := client.New("http://localhost:8080")
//	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
//	defer cancel()
//	out, err := c.Infer(ctx, &api.InferRequest{Model: "demo", Items: items})
//
// Failures are *api.Error values: errors.As exposes the machine-readable
// code (api.CodeOverloaded, api.CodeModelNotFound, ...).
package client

import (
	"context"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/pkg/api"
)

// Client talks to one sickle-serve base URL. The zero value is not usable;
// construct with New. Clients are safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	version    string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). Per-call contexts still bound each request.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets how many times a typed overloaded response is retried
// (default 3) and the base backoff doubled per attempt (default 100ms).
// The server's Retry-After, when longer, wins. maxRetries 0 disables
// retry.
func WithRetry(maxRetries int, backoff time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = maxRetries
		c.backoff = backoff
	}
}

// New builds a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{},
		maxRetries: 3,
		backoff:    100 * time.Millisecond,
		version:    api.Latest,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ServerVersions fetches the raw version-negotiation handshake (GET
// /api/version) without changing the client's pinned version — routing
// layers use it to intersect version sets across backends.
func (c *Client) ServerVersions(ctx context.Context) (*api.VersionInfo, error) {
	return call[api.VersionInfo](ctx, c, http.MethodGet, "/api/version", nil)
}

// Negotiate asks the server which API versions it speaks (GET
// /api/version) and pins the newest one this SDK understands; subsequent
// calls use it. Servers without the endpoint (pre-v2) yield a typed
// unsupported_version error.
func (c *Client) Negotiate(ctx context.Context) (string, error) {
	info, err := c.ServerVersions(ctx)
	if err != nil {
		ae := api.AsError(err)
		if ae.Code == api.CodeNotFound {
			return "", api.Errorf(api.CodeUnsupportedVersion,
				"server at %s predates API version negotiation", c.base)
		}
		return "", err
	}
	for _, v := range []string{api.V2} { // newest first among SDK-known versions
		if slices.Contains(info.Versions, v) {
			c.version = v
			return v, nil
		}
	}
	return "", api.Errorf(api.CodeUnsupportedVersion,
		"no common API version: server speaks %v", info.Versions)
}

// Version returns the API version in use ("v2" unless Negotiate found
// otherwise).
func (c *Client) Version() string { return c.version }

// Infer runs micro-batched inference.
func (c *Client) Infer(ctx context.Context, req *api.InferRequest) (*api.InferResponse, error) {
	return call[api.InferResponse](ctx, c, http.MethodPost, c.versioned("/infer"), req)
}

// Subsample runs the two-phase pipeline synchronously (small requests; use
// SubmitSubsampleJob for work worth cancelling).
func (c *Client) Subsample(ctx context.Context, req *api.SubsampleRequest) (*api.SubsampleResponse, error) {
	return call[api.SubsampleResponse](ctx, c, http.MethodPost, c.versioned("/subsample"), req)
}

// Models lists the registered models.
func (c *Client) Models(ctx context.Context) ([]api.ModelInfo, error) {
	out, err := call[[]api.ModelInfo](ctx, c, http.MethodGet, c.versioned("/models"), nil)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// RegisterModel loads (or hot-swaps) a checkpoint under a name.
func (c *Client) RegisterModel(ctx context.Context, req *api.RegisterModelRequest) (*api.ModelInfo, error) {
	return call[api.ModelInfo](ctx, c, http.MethodPost, c.versioned("/models"), req)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	return call[api.Health](ctx, c, http.MethodGet, "/healthz", nil)
}

// MetricsText fetches the raw Prometheus exposition from /metrics.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	raw, err := c.getRaw(ctx, "/metrics", "")
	return string(raw), err
}

// DebugTraceJSON fetches one trace's raw JSON payload from
// /debug/traces/<id>. A missing trace yields a typed not-found error. The
// shard router uses this to merge replica-side spans into its own view of
// a trace; operators can use it as a programmatic /debug/traces client.
func (c *Client) DebugTraceJSON(ctx context.Context, traceID string) ([]byte, error) {
	return c.getRaw(ctx, "/debug/traces/"+traceID, "")
}

// versioned prefixes path with the negotiated API version.
func (c *Client) versioned(path string) string { return "/" + c.version + path }

// call is do, decoding the answer into a new T.
func call[T any](ctx context.Context, c *Client, method, path string, in any) (*T, error) {
	out := new(T)
	if err := c.do(ctx, method, path, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// do performs one round trip with the overloaded-retry loop, in JSON or,
// for a type that has one, in the binary tensor frame. in and out may be
// nil. When ctx carries no trace identity, do mints a fresh
// trace ID so every SDK call is traceable end to end; either way the
// identity travels downstream as the X-Sickle-Trace header.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, false)
}

// doRetry is do with an optional widened retry policy: with
// retryUnavailable set, typed unavailable answers (transport failures,
// refused WAL appends) retry on the same backoff schedule. Only calls
// the server deduplicates — keyed job submissions — may set it; anything
// else could double-apply on a connection that died after the server
// acted.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, retryUnavailable bool) error {
	if _, ok := api.TraceFrom(ctx); !ok {
		ctx = api.WithTrace(ctx, api.TraceContext{TraceID: api.NewTraceID()})
	}
	ex := NewExchange()
	defer ex.Release()
	if a, ok := in.(encoding.BinaryAppender); ok { // the Infer request's tensor frame
		b, err := a.AppendBinary(ex.Request.AvailableBuffer())
		if err != nil {
			return err
		}
		ex.Request.Write(b) // a copy onto itself unless b outgrew the buffer
		ex.ContentType = api.ContentTypeTensors
	} else if in != nil {
		if err := json.NewEncoder(&ex.Request).Encode(in); err != nil {
			return err
		}
		ex.Request.Truncate(ex.Request.Len() - 1) // the Encoder's newline: the wire bytes are json.Marshal's
	}
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, ex, out)
		if err == nil || attempt >= c.maxRetries {
			return err
		}
		ae := api.AsError(err)
		if ae.Code != api.CodeOverloaded &&
			!(retryUnavailable && ae.Code == api.CodeUnavailable) {
			return err
		}
		delay := c.backoff << attempt
		if ra := time.Duration(ae.RetryAfterSeconds) * time.Second; ra > delay {
			delay = ra
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return api.AsError(ctx.Err())
		}
	}
}

// once is one typed attempt: Forward, then out decoded from the answer's
// bytes (never from the response stream — see Forward on keep-alive) as
// its Content-Type says.
func (c *Client) once(ctx context.Context, method, path string, ex *Exchange, out any) error {
	if err := c.Forward(ctx, method, path, ex); err != nil || out == nil {
		return err
	}
	// A success body that does not parse was truncated where the framing
	// could not show it: unavailable, like a short read.
	if err := api.Unmarshal(ex.AnswerType, ex.Answer.Bytes(), out); err != nil {
		return api.Errorf(api.CodeUnavailable, "%s %s: reading response: %v", method, c.base+path, err)
	}
	return nil
}

// decodeError recovers a typed *api.Error from a failure answer: the v2
// envelope when present, the legacy v1 {"error":"msg"} shape, or a bare
// status otherwise. It keeps nothing of raw.
func decodeError(status int, raw []byte) error {
	raw = raw[:min(len(raw), 64<<10)]
	var env api.ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error != nil && env.Error.Code != "" {
		return env.Error
	}
	var legacy struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &legacy) == nil && legacy.Error != "" {
		msg = legacy.Error
	}
	return &api.Error{
		Code:    api.CodeFromStatus(status),
		Message: fmt.Sprintf("HTTP %d: %s", status, msg),
	}
}

// getRaw fetches one raw payload (/metrics, a /debug view); query is the
// raw query string without its "?". Transport failures surface as typed
// unavailable errors so the shard router's scatter-gather can count them
// against replica health.
func (c *Client) getRaw(ctx context.Context, path, query string) ([]byte, error) {
	pathAndQuery := path
	if query != "" {
		pathAndQuery += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, api.Errorf(api.CodeUnavailable, "GET %s: %v", pathAndQuery, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, api.Errorf(api.CodeUnavailable, "GET %s: reading response: %v", pathAndQuery, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, api.Errorf(api.CodeFromStatus(resp.StatusCode),
			"GET %s: HTTP %d", pathAndQuery, resp.StatusCode)
	}
	return raw, nil
}

// DebugHistoryJSON fetches the raw /debug/history payload (the tsdb
// metrics history). query is the raw query string without the leading
// "?", e.g. "series=sickle_requests_total&since=5m"; "" fetches all.
func (c *Client) DebugHistoryJSON(ctx context.Context, query string) ([]byte, error) {
	return c.getRaw(ctx, "/debug/history", query)
}

// DebugEventsJSON fetches the raw /debug/events payload (the event
// journal tail). query is the raw query string without the leading "?",
// e.g. "limit=64&type=ejection"; "" uses the server defaults.
func (c *Client) DebugEventsJSON(ctx context.Context, query string) ([]byte, error) {
	return c.getRaw(ctx, "/debug/events", query)
}

// DebugSLOJSON fetches the raw /debug/slo payload (the burn-rate
// engine's current report).
func (c *Client) DebugSLOJSON(ctx context.Context) ([]byte, error) {
	return c.getRaw(ctx, "/debug/slo", "")
}
