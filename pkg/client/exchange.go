package client

import (
	"bytes"
	"cmp"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/pkg/api"
)

// Exchange is one raw request/answer pair in pooled buffers: the body bytes
// a round trip sends and the answer it read back whole. Every typed SDK
// call runs on one; a routing layer that relays bytes it has not parsed
// fills Request itself and calls Forward once per candidate.
//
// Ownership: the caller owns both buffers from NewExchange to Release,
// except that a transport may go on reading Request until it closes the
// body it was handed, which can be after the round trip has returned (a
// cancelled or early-answered request). So Request must not be modified
// once it has been sent, and Release recycles the buffers only when every
// body has been closed — otherwise they are left to the collector.
type Exchange struct {
	Request     bytes.Buffer // body to send; empty sends none
	ContentType string       // Request's Content-Type; "" sends application/json
	Answer      bytes.Buffer // the last answer's body, read to EOF
	AnswerType  string       // the last answer's Content-Type
	Status      int          // the last answer's HTTP status

	lent atomic.Int32 // bodies over Request a transport has not closed yet
}

// maxPooledExchange keeps one outsized payload (a 16 MiB debug dump) from
// pinning its buffers in the pool for good.
const maxPooledExchange = 1 << 20

var exchanges = sync.Pool{New: func() any { return new(Exchange) }}

// NewExchange returns an empty exchange; pair it with Release.
func NewExchange() *Exchange { return exchanges.Get().(*Exchange) }

// Release ends the caller's ownership: bytes obtained from either buffer
// must not be used afterwards.
func (ex *Exchange) Release() {
	if ex.lent.Load() != 0 || ex.Request.Cap()+ex.Answer.Cap() > maxPooledExchange {
		return
	}
	ex.Request.Reset()
	ex.Answer.Reset()
	ex.ContentType, ex.AnswerType, ex.Status = "", "", 0
	exchanges.Put(ex)
}

// lentBody is one request body over an exchange's Request bytes; Close is
// the transport's word that it is done with them.
type lentBody struct {
	bytes.Reader
	ex     *Exchange
	closed atomic.Bool
}

func (b *lentBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.ex.lent.Add(-1)
	}
	return nil
}

func (ex *Exchange) body() io.ReadCloser {
	ex.lent.Add(1)
	b := &lentBody{ex: ex}
	b.Reset(ex.Request.Bytes())
	return b
}

// Forward performs one raw round trip, without the retry loop of the typed
// calls: ex.Request is the body, sent as ex.ContentType, and the answer —
// read to EOF, so the keep-alive connection goes back to the transport's
// pool — is left in ex.Answer with its status in ex.Status and its
// Content-Type in ex.AnswerType. The trace identity in ctx travels
// as the X-Sickle-Trace header. Failures are typed exactly as for the typed
// calls: a status of 400 or more is the *api.Error its body carries, a
// transport failure or an answer cut short is unavailable.
func (c *Client) Forward(ctx context.Context, method, path string, ex *Exchange) error {
	url := c.base + path
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	if n := ex.Request.Len(); n > 0 {
		req.Body, req.ContentLength = ex.body(), int64(n)
		// Lets the transport replay the body on a pooled connection that
		// turns out dead before anything was written, as it would for the
		// readers http.NewRequest recognises.
		req.GetBody = func() (io.ReadCloser, error) { return ex.body(), nil }
		req.Header.Set("Content-Type", cmp.Or(ex.ContentType, "application/json"))
	}
	if tc, ok := api.TraceFrom(ctx); ok {
		req.Header.Set(api.TraceHeader, tc.HeaderValue())
	}
	ex.Answer.Reset()
	ex.AnswerType, ex.Status = "", 0
	resp, err := c.hc.Do(req)
	if err != nil {
		// Ctx cancellation/deadline surface as their own codes; any other
		// transport failure (connection refused, reset, DNS) is typed
		// unavailable so routing layers can tell "backend unreachable" apart
		// from an application error and fail over.
		ae := api.AsError(err)
		if ae.Code == api.CodeInternal {
			ae = api.Errorf(api.CodeUnavailable, "%s %s: %v", method, url, err)
		}
		return ae
	}
	defer resp.Body.Close()
	ex.Status, ex.AnswerType = resp.StatusCode, resp.Header.Get("Content-Type")
	if resp.ContentLength > 0 {
		// MinRead more, or the read that finds EOF regrows the buffer.
		ex.Answer.Grow(int(min(resp.ContentLength, maxPooledExchange)) + bytes.MinRead)
	}
	_, readErr := ex.Answer.ReadFrom(resp.Body)
	if ex.Status >= 400 {
		return decodeError(ex.Status, ex.Answer.Bytes())
	}
	// A success status whose body cannot be read to its end means the
	// connection died (or the payload was truncated) after the headers: type
	// it unavailable too, so routing layers fail over instead of treating it
	// as a final application answer.
	if readErr != nil {
		return api.Errorf(api.CodeUnavailable, "%s %s: reading response: %v", method, url, readErr)
	}
	return nil
}
