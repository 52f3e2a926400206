package api

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// plainItem is InferItem without its UnmarshalJSON: what encoding/json
// alone makes of an input, the reference the fast path must agree with.
type plainItem InferItem

type plainRequest struct {
	Model string      `json:"model"`
	Items []plainItem `json:"items"`
}

// sameItem compares every bit, and nil against empty: reflect.DeepEqual
// alone would let -0 pass for 0.
func sameItem(a InferItem, b plainItem) bool {
	if !reflect.DeepEqual(a.Shape, b.Shape) || (a.Data == nil) != (b.Data == nil) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestInferItemFastPath pins which inputs the fast path takes, so that it
// cannot quietly stop being the path the wire format runs on, and checks
// both groups against encoding/json.
func TestInferItemFastPath(t *testing.T) {
	canonical, err := json.Marshal(InferItem{Shape: []int{2, 3}, Data: []float64{0, -0.5, 1e-7, 1.7976931348623157e308, 5e-324, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   string
		fast bool
	}{
		{string(canonical), true},
		{`{"data":[1,2],"shape":[2]}`, true},
		{" {\n\t\"shape\" : [ 1 , 2 ] ,\r\n \"data\" : [ -0 , 1E+2 , 0.5e-3 ] } ", true},
		{`{"shape":[],"data":[]}`, true},
		{`{"shape":[ ],"data":[-0.0]}`, true},
		{`null`, false},
		{`{}`, false},
		{`{"shape":[1]}`, false},
		{`{"shape":null,"data":null}`, false},
		{`{"Shape":[1],"DATA":[2]}`, false},
		{`{"shape":[1],"data":[2],"extra":{"data":[3]}}`, false},
		{`{"shape":[1],"data":[2],"data":[3,4]}`, false},
		{`{"shape":[1234567890123],"data":[1]}`, false},
		{`{"shape":[1.0],"data":[1]}`, false},
		{`{"shape":[1],"data":[1e999]}`, false},
		{`{"shape":[1],"data":[[1]]}`, false},
		{`{"shape":[1],"data":["1"]}`, false},
		{`{"shape":[1],"data":[1,]}`, false},
		{`{"shape":[1],"data":[01]}`, false},
		{`{"shape":[1],"data":[+1]}`, false},
		{`{"shape":[1],"data":[.5]}`, false},
		{`{"shape":[1],"data":[1.]}`, false},
		{`{"shape":[1],"data":[0x10]}`, false},
		{`{"shape":[1],"data":[Inf]}`, false},
		{`{"shape":[1],"data":[1 2]}`, false},
		{`{"shape":[1],"data":[1]} x`, false},
		{`{"shape":[1],"data":[1]`, false},
	} {
		if _, _, ok := parseInferItem([]byte(tc.in)); ok != tc.fast {
			t.Errorf("%s: fast path taken = %v, want %v", tc.in, ok, tc.fast)
		}
		checkAgainstEncodingJSON(t, []byte(tc.in))
	}
}

// checkAgainstEncodingJSON holds InferItem.UnmarshalJSON to the method-less
// decode on one input: same verdict, same value to the bit, alone and as
// an element of a request.
func checkAgainstEncodingJSON(t *testing.T, in []byte) {
	t.Helper()
	var got InferItem
	var want plainItem
	gotErr, wantErr := got.UnmarshalJSON(in), json.Unmarshal(in, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: UnmarshalJSON says %v, encoding/json says %v", in, gotErr, wantErr)
	}
	if gotErr == nil && !sameItem(got, want) {
		t.Fatalf("%q: UnmarshalJSON gives %+v, encoding/json %+v", in, got, want)
	}
	if cap(got.Data) > len(in) || cap(got.Shape) > len(in) {
		t.Fatalf("%q: %d floats and %d dims allocated for %d bytes", in, cap(got.Data), cap(got.Shape), len(in))
	}

	body := []byte(`{"model":"m","items":[` + string(in) + `,` + string(in) + `]}`)
	var gotReq InferRequest
	var wantReq plainRequest
	gotErr, wantErr = json.Unmarshal(body, &gotReq), json.Unmarshal(body, &wantReq)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q in a request: with UnmarshalJSON %v, without %v", in, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if gotReq.Model != wantReq.Model || len(gotReq.Items) != len(wantReq.Items) {
		t.Fatalf("%q in a request: %+v against %+v", in, gotReq, wantReq)
	}
	for i := range gotReq.Items {
		if !sameItem(gotReq.Items[i], wantReq.Items[i]) {
			t.Fatalf("%q as item %d: %+v against %+v", in, i, gotReq.Items[i], wantReq.Items[i])
		}
	}
}

// FuzzInferItemJSON: on any input the fast path and encoding/json agree
// on accept/reject and on every bit of the value, and the fast path's
// arrays are sized by the elements present, never by what the shape
// claims.
func FuzzInferItemJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parseInferItem(in)
		runtime.ReadMemStats(&after)
		// One int or float per input byte at the very most; the constant
		// covers the runtime's own background allocation.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+(64<<10)); grew > limit {
			t.Fatalf("fast path allocated %d bytes for a %d-byte input", grew, len(in))
		}
		checkAgainstEncodingJSON(t, in)
	})
}

// TestInferItemDecodeAllocs: decoding a request costs its exact-size
// arrays and encoding/json's per-call state, not a doubling series per
// array (which was 11 slices for a 1,024-float item).
func TestInferItemDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const items, floats = 4, 1024
	req := InferRequest{Model: "m"}
	for i := 0; i < items; i++ {
		it := InferItem{Shape: []int{floats / 4, 4}, Data: make([]float64, floats)}
		for k := range it.Data {
			it.Data[k] = float64(k*(i+1)) / 7
		}
		req.Items = append(req.Items, it)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out InferRequest
	allocs := testing.AllocsPerRun(20, func() {
		out = InferRequest{}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(out, req) {
		t.Fatal("round trip changed the request")
	}
	// Measured 17: Shape and Data per item, the items slice doubling to
	// four, the model string and the decoder's own state.
	if allocs > 20 {
		t.Fatalf("decoding %d items of %d floats: %.0f allocations, want at most 20", items, floats, allocs)
	}
}

// TestNewIDAllocs: an ID costs the string it returns and nothing else.
func TestNewIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var sink string
	for name, mint := range map[string]func() string{
		"trace": NewTraceID, "span": NewSpanID, "idempotency key": NewIdempotencyKey,
	} {
		if allocs := testing.AllocsPerRun(100, func() { sink = mint() }); allocs > 1 {
			t.Errorf("%s ID: %.0f allocations, want 1", name, allocs)
		}
	}
	if strings.Trim(sink, "0123456789abcdef") != "" {
		t.Errorf("ID %q is not lower-case hex", sink)
	}
}
