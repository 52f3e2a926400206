package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// sameItems compares shapes (a missing one as empty) and every bit of every
// value: reflect.DeepEqual alone would let -0 pass for 0 and fail NaN
// against itself.
func sameItems(a, b []InferItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Shape, b[i].Shape) || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for k := range a[i].Data {
			if math.Float64bits(a[i].Data[k]) != math.Float64bits(b[i].Data[k]) {
				return false
			}
		}
	}
	return true
}

// specialValues are the floats a re-render could lose: NaN payloads, −0,
// ±Inf, the extreme normals and a subnormal.
var specialValues = []float64{
	math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001),
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.0 / 3,
}

// wantInvalid fails unless err is the typed invalid_argument.
func wantInvalid(t *testing.T, what string, err error) {
	t.Helper()
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument {
		t.Fatalf("%s: %v, want a typed invalid_argument", what, err)
	}
}

// checkFrame holds one encoded frame to the codec's contract: it decodes to
// what was encoded, bit for bit; the router's name prefix is the decoded
// Model; and every strict prefix of it is refused.
func checkFrame(t *testing.T, req *InferRequest, resp *InferResponse) {
	t.Helper()
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotReq InferRequest
	if err := gotReq.UnmarshalBinary(frame); err != nil {
		t.Fatalf("decoding an encoded request: %v", err)
	}
	if gotReq.Model != req.Model || !sameItems(gotReq.Items, req.Items) {
		t.Fatalf("request %+v decoded as %+v", req, gotReq)
	}
	if name, err := InferModel(frame); err != nil || name != req.Model {
		t.Fatalf("name prefix %q, %v; the full decode says %q", name, err, req.Model)
	}
	for n := range frame {
		wantInvalid(t, "a strict request prefix", new(InferRequest).UnmarshalBinary(frame[:n]))
	}

	frame, err = resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotResp InferResponse
	if err := gotResp.UnmarshalBinary(frame); err != nil {
		t.Fatalf("decoding an encoded response: %v", err)
	}
	if gotResp.Model != resp.Model || gotResp.Version != resp.Version ||
		!reflect.DeepEqual(gotResp.BatchSizes, resp.BatchSizes) || !sameItems(gotResp.Outputs, resp.Outputs) {
		t.Fatalf("response %+v decoded as %+v", resp, gotResp)
	}
	for n := range frame {
		wantInvalid(t, "a strict response prefix", new(InferResponse).UnmarshalBinary(frame[:n]))
	}
}

// itemsFrom spells items out of arbitrary bytes: per item a length byte,
// then that many (at most 8) little-endian float64 bit patterns, shaped
// [2, n/2] when n is even and [n] otherwise.
func itemsFrom(in []byte) []InferItem {
	items := []InferItem{}
	for len(in) > 0 {
		n := min(int(in[0])%9, (len(in)-1)/8)
		in = in[1:]
		it := InferItem{Shape: []int{n}, Data: make([]float64, n)}
		if n > 0 && n%2 == 0 {
			it.Shape = []int{2, n / 2}
		}
		for k := range it.Data {
			it.Data[k] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*k:]))
		}
		in = in[8*n:]
		items = append(items, it)
	}
	return items
}

func TestInferWireRoundTrip(t *testing.T) {
	items := []InferItem{
		{Shape: []int{3, 3}, Data: specialValues},
		{Shape: []int{1}, Data: []float64{42}},
		{Shape: []int{2, 0, 5}, Data: []float64{}},
	}
	for _, model := range []string{"", "m", "modèle-ü", string(bytes.Repeat([]byte{'x'}, 1024))} {
		checkFrame(t,
			&InferRequest{Model: model, Items: items},
			&InferResponse{Model: model, Version: 7, Outputs: items, BatchSizes: []int{1, 4, 2}})
	}
	checkFrame(t, &InferRequest{Model: "none", Items: []InferItem{}},
		&InferResponse{Model: "none", Outputs: []InferItem{}, BatchSizes: []int{}})
}

// TestInferWireRefusals: each way a frame can be malformed is a typed
// invalid_argument, before anything is sized by a count the body cannot
// hold.
func TestInferWireRefusals(t *testing.T) {
	valid, err := (&InferRequest{Model: "m", Items: []InferItem{{Shape: []int{2}, Data: []float64{1, 2}}}}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"truncated", valid[:len(valid)-1]},
		{"trailing bytes", append(bytes.Clone(valid), 0)},
		{"dims product is not the value count", append(le.AppendUint32(bytes.Clone(valid[:17]), 3), make([]byte, 24)...)},
		{"dims product overflows", le.AppendUint32(le.AppendUint32(le.AppendUint32(le.AppendUint32(
			le.AppendUint32(bytes.Clone(valid[:9]), 3), 1<<31), 1<<31), 1<<31), 0)},
		{"name longer than the frame", le.AppendUint32(nil, math.MaxUint32)},
		{"more items than the frame holds", le.AppendUint32(le.AppendUint32(nil, 0), 1<<30)},
		{"more values than the frame holds", le.AppendUint32(bytes.Clone(valid[:17]), 1<<29)},
	} {
		wantInvalid(t, tc.name, new(InferRequest).UnmarshalBinary(tc.frame))
	}
	// A dim a u32 cannot hold is refused at the encoder, not wrapped: [-1, 0]
	// would otherwise arrive as a valid [4294967295, 0].
	shapes := [][]int{{-1, 0}, {-1, -3}}
	if past := uint64(math.MaxUint32) + 2; bits.UintSize == 64 { // only a 64-bit int gets past a u32
		shapes = append(shapes, []int{int(past)})
	}
	for _, shape := range shapes {
		_, err := (&InferRequest{Items: []InferItem{{Shape: shape, Data: []float64{}}}}).AppendBinary(nil)
		wantInvalid(t, fmt.Sprintf("encoding shape %v", shape), err)
	}
	if _, err := (&InferResponse{Outputs: []InferItem{{}}}).AppendBinary(nil); err == nil {
		t.Error("a response without its batch sizes encoded")
	}
}

// FuzzInferWire: on any input both decoders return without panicking and
// allocate no more than a small multiple of the input's length; a frame
// either decoder accepts re-encodes to the same bytes; and items spelled
// out of the input (NaN payloads, −0 and ±Inf among them) survive a round
// trip bit for bit while every strict prefix of their frame is refused.
func FuzzInferWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var req InferRequest
		var resp InferResponse
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reqErr, respErr := req.UnmarshalBinary(in), resp.UnmarshalBinary(in)
		runtime.ReadMemStats(&after)
		// The constant covers the runtime's own background allocation.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(in)+(64<<10)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		for _, dec := range []struct {
			err error
			enc func() ([]byte, error)
		}{{reqErr, func() ([]byte, error) { return req.AppendBinary(nil) }},
			{respErr, func() ([]byte, error) { return resp.AppendBinary(nil) }}} {
			if dec.err != nil {
				wantInvalid(t, "a refused frame", dec.err)
				continue
			}
			if again, err := dec.enc(); err != nil || !bytes.Equal(again, in) {
				t.Fatalf("accepted %x re-encodes to %x, %v", in, again, err)
			}
		}

		items := itemsFrom(in)
		batch := make([]int, len(items))
		for i := range batch {
			batch[i] = len(in) + i
		}
		model := string(in[:min(len(in), 16)])
		checkFrame(t, &InferRequest{Model: model, Items: items},
			&InferResponse{Model: model, Version: len(items), Outputs: items, BatchSizes: batch})
	})
}

// describes reports whether every item's dims fit a u32 and multiply out
// to its value count: the items a tensor frame can carry.
func describes(items []InferItem) bool {
	for _, it := range items {
		n := uint64(1) // capped above any count: n·d cannot overflow
		for _, d := range it.Shape {
			if d < 0 || uint64(d) > math.MaxUint32 {
				return false
			}
			n = min(n*uint64(d), math.MaxUint32+1)
		}
		if n != uint64(len(it.Data)) {
			return false
		}
	}
	return true
}

// FuzzInferItemJSON: JSON, the default infer content type, and the tensor
// frame carry the same items. On any item body, twice in a request,
// Unmarshal accepts what encoding/json accepts and refuses the rest as a
// typed invalid_argument; an accepted request re-marshals to JSON that
// decodes to the same bits; and sent as a frame it comes back bit for bit,
// or is refused as a typed invalid_argument exactly when an item's shape
// cannot describe its values.
func FuzzInferItemJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		body := []byte(`{"model":"m","items":[` + string(in) + `,` + string(in) + `]}`)
		var req InferRequest
		err := Unmarshal("application/json", body, &req)
		if wantErr := json.Unmarshal(body, new(InferRequest)); (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Unmarshal says %v, encoding/json says %v", in, err, wantErr)
		}
		if err != nil {
			wantInvalid(t, "refused JSON", err)
			return
		}

		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("%q: re-marshalling: %v", in, err)
		}
		var back InferRequest
		if err := json.Unmarshal(again, &back); err != nil || back.Model != req.Model || !sameItems(back.Items, req.Items) {
			t.Fatalf("%q: JSON round trip gave %+v, %v; want %+v", in, back, err, req)
		}

		frame, err := req.AppendBinary(nil)
		var got InferRequest
		if err == nil {
			err = got.UnmarshalBinary(frame)
		}
		if describes(req.Items) != (err == nil) {
			t.Fatalf("%q: items %+v as a frame: %v", in, req.Items, err)
		}
		if err != nil {
			wantInvalid(t, "a shape that cannot describe its values", err)
			return
		}
		if got.Model != req.Model || !sameItems(got.Items, req.Items) {
			t.Fatalf("%q: %+v came back from its frame as %+v", in, req, got)
		}
	})
}

// TestInferItemDecodeAllocs: decoding a request frame costs its exact-size
// arrays — shape and values per item, the item slice and the model name —
// and nothing else.
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
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out InferRequest
	allocs := testing.AllocsPerRun(20, func() {
		if err := out.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(out, req) {
		t.Fatal("round trip changed the request")
	}
	if want := 2*items + 2; allocs > float64(want) {
		t.Fatalf("decoding %d items of %d floats: %.0f allocations, want at most %d", items, floats, allocs, want)
	}
}
