package api

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"math"
)

// ContentTypeTensors is the binary content type of POST /v2/infer, laid
// out as the package documentation says. A request sent in it is answered
// in it; JSON stays the default.
const ContentTypeTensors = "application/x-sickle-tensors"

// Unmarshal decodes v from body as contentType says: the tensor frame when
// it is ContentTypeTensors and v implements encoding.BinaryUnmarshaler,
// one JSON value otherwise. A failure is a typed invalid_argument.
func Unmarshal(contentType string, body []byte, v any) error {
	if u, ok := v.(encoding.BinaryUnmarshaler); ok && contentType == ContentTypeTensors {
		return u.UnmarshalBinary(body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return Errorf(CodeInvalidArgument, "bad JSON: %v", err)
	}
	return nil
}

// AppendBinary appends the request's tensor frame to b.
func (r *InferRequest) AppendBinary(b []byte) ([]byte, error) {
	return appendFrame(b, r.Model, nil, r.Items, nil)
}

// AppendBinary appends the response's tensor frame to b.
func (r *InferResponse) AppendBinary(b []byte) ([]byte, error) {
	return appendFrame(b, r.Model, &r.Version, r.Outputs, r.BatchSizes)
}

// UnmarshalBinary decodes a request frame, keeping no reference to b.
func (r *InferRequest) UnmarshalBinary(b []byte) error {
	f, err := decodeFrame(b, false)
	r.Model, r.Items = f.Model, f.Outputs
	return err
}

// UnmarshalBinary decodes a response frame, keeping no reference to b.
func (r *InferResponse) UnmarshalBinary(b []byte) error {
	var err error
	*r, err = decodeFrame(b, true)
	return err
}

// InferModel reads the model name off the front of a request frame, and
// nothing after it: all a router needs to pick a replica.
func InferModel(b []byte) (string, error) {
	f := frame{b: b}
	name := f.next(f.count(1))
	return string(name), f.err
}

// appendFrame writes one frame; a response (version set) adds its version
// and one batch size per item. A pooled b has room already: no size pass.
// A dim a u32 cannot hold is refused, not wrapped into another shape.
func appendFrame(b []byte, model string, version *int, items []InferItem, batch []int) ([]byte, error) {
	if version != nil && len(batch) != len(items) {
		return nil, Errorf(CodeInternal, "tensor frame: %d batch sizes for %d items", len(batch), len(items))
	}
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	u32(len(model))
	b = append(b, model...)
	if version != nil {
		u32(*version)
	}
	u32(len(items))
	for i, it := range items {
		u32(len(it.Shape))
		for _, d := range it.Shape {
			if d < 0 || uint64(d) > math.MaxUint32 {
				return nil, Errorf(CodeInvalidArgument, "tensor frame: item %d: dim %d does not fit a u32", i, d)
			}
			u32(d)
		}
		u32(len(it.Data))
		for _, v := range it.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		if version != nil {
			u32(batch[i])
		}
	}
	return b, nil
}

// decodeFrame reads one frame; a request's items come back as Outputs.
func decodeFrame(b []byte, response bool) (InferResponse, error) {
	f := frame{b: b}
	var out InferResponse
	out.Model = string(f.next(f.count(1)))
	if response {
		out.Version = f.u32()
	}
	out.Outputs = make([]InferItem, f.count(8)) // an item is ≥ 8 bytes: rank and value count
	if response {
		out.BatchSizes = make([]int, len(out.Outputs))
	}
	for i := range out.Outputs {
		shape := make([]int, f.count(4))
		want := uint64(1) // the dims' product, capped above any count: it cannot overflow
		for k := range shape {
			shape[k] = f.u32()
			want = min(want*uint64(shape[k]), math.MaxUint32+1)
		}
		data := make([]float64, f.count(8))
		raw := f.next(8 * len(data))
		for k := range data {
			data[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		if f.err == nil && want != uint64(len(data)) {
			f.fail("item %d: shape %v wants %d values, frame has %d", i, shape, want, len(data))
		}
		if response {
			out.BatchSizes[i] = f.u32()
		}
		out.Outputs[i] = InferItem{Shape: shape, Data: data}
	}
	if f.err == nil && len(f.b) > 0 {
		f.fail("%d trailing bytes", len(f.b))
	}
	return out, f.err
}

// frame is a read cursor whose first failure sticks: every later read
// yields zero and consumes nothing.
type frame struct {
	b   []byte
	err error
}

func (f *frame) fail(format string, args ...any) {
	if f.err == nil {
		f.err = Errorf(CodeInvalidArgument, "tensor frame: "+format, args...)
	}
	f.b = nil
}

func (f *frame) next(n int) []byte {
	if n > len(f.b) {
		f.fail("truncated")
	}
	p := f.b[:min(n, len(f.b))]
	f.b = f.b[len(p):]
	return p
}

func (f *frame) u32() int {
	if p := f.next(4); len(p) == 4 {
		return int(binary.LittleEndian.Uint32(p))
	}
	return 0
}

// count reads a count of elements of at least size bytes each, refusing
// one the rest of the frame cannot hold: no count sizes an allocation
// beyond what the frame's own length allows.
func (f *frame) count(size int) int {
	n := f.u32()
	if n > len(f.b)/size {
		f.fail("%d elements of ≥ %d bytes declared, %d bytes left", n, size, len(f.b))
		return 0
	}
	return n
}
