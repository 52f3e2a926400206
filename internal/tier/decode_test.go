package tier

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/pkg/api"
)

// FuzzDecodeBody is the decode boundary's contract, the behavioural twin of
// the apierr analyzer: whatever body a request carries, decoding it into any
// request type the tiers take, as JSON or (tensors set) as
// api.ContentTypeTensors, gives nil or an *api.Error with
// CodeInvalidArgument: never CodeInternal, never a panic. kind picks the
// type; the seed corpus is testdata/fuzz/FuzzDecodeBody.
func FuzzDecodeBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, tensors bool, body []byte) {
		targets := []any{new(api.SubmitJobRequest), new(api.SubsampleRequest), new(api.RegisterModelRequest), new(api.InferRequest)}
		v := targets[int(kind)%len(targets)]
		r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		if tensors {
			r.Header.Set("Content-Type", api.ContentTypeTensors)
		}
		err := DecodeBody(r, v)
		var ae *api.Error
		if err != nil && (!errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument) {
			t.Fatalf("%T (tensors %v) from %q: %v, want nil or a typed invalid_argument", v, tensors, body, err)
		}
	})
}
