package api

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// UnmarshalJSON decodes the tensor payload without encoding/json's
// grow-by-doubling: a canonical item — exactly the keys "shape" and
// "data", once each, over flat number arrays — has each array's elements
// counted, allocated once and parsed in place. The accepted language and
// every decoded bit stay encoding/json's: the fast path recognises a
// strict subset of JSON, and anything else (null, unknown, repeated or
// escaped keys, a number it cannot take, malformed input) is decoded by
// encoding/json through a method-less alias. Nothing is written to it
// until the whole input has been recognised.
func (it *InferItem) UnmarshalJSON(b []byte) error {
	if shape, data, ok := parseInferItem(b); ok {
		it.Shape, it.Data = shape, data
		return nil
	}
	type plain InferItem
	return json.Unmarshal(b, (*plain)(it))
}

// parseInferItem is the fast path of InferItem.UnmarshalJSON; ok is false
// for anything but a canonical item.
func parseInferItem(b []byte) (shape []int, data []float64, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, nil, false
	}
	i++
	for n := 0; n < 2; n++ {
		i = skipSpace(b, i)
		if n > 0 {
			if i == len(b) || b[i] != ',' {
				return nil, nil, false
			}
			i = skipSpace(b, i+1)
		}
		switch rest := b[i:]; {
		case shape == nil && bytes.HasPrefix(rest, []byte(`"shape"`)):
			shape, i, ok = parseArray(b, i+len(`"shape"`), dimLiteral)
		case data == nil && bytes.HasPrefix(rest, []byte(`"data"`)):
			data, i, ok = parseArray(b, i+len(`"data"`), floatLiteral)
		default:
			ok = false
		}
		if !ok {
			return nil, nil, false
		}
	}
	i = skipSpace(b, i)
	if i == len(b) || b[i] != '}' || skipSpace(b, i+1) != len(b) {
		return nil, nil, false
	}
	return shape, data, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// parseArray parses the `: [n, n, …]` that follows a key at b[i:], a flat
// array of number literals each converted by elem, and returns the index
// after the ']'. The result is never nil (encoding/json decodes [] to an
// empty slice too) and is sized before any element is parsed: one more
// than the commas before the first ']', which the elements then have to
// meet exactly — so an array that is not flat numbers fails, and no input
// allocates more elements than it has bytes.
func parseArray[T any](b []byte, i int, elem func(lit []byte, integer bool) (T, bool)) ([]T, int, bool) {
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return nil, i, false
	}
	if i = skipSpace(b, i+1); i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i, false
	}
	if end == 0 {
		return []T{}, i + 1, true
	}
	out := make([]T, bytes.Count(b[i:i+end], []byte{','})+1)
	for k := range out {
		i = skipSpace(b, i)
		litEnd, integer := numberEnd(b, i)
		var ok bool
		if out[k], ok = elem(b[i:litEnd], integer); !ok {
			return nil, i, false
		}
		closer := byte(',')
		if k == len(out)-1 {
			closer = ']'
		}
		if i = skipSpace(b, litEnd); i == len(b) || b[i] != closer {
			return nil, i, false
		}
		i++
	}
	return out, i, true
}

// numberEnd returns the end of the JSON number literal starting at b[i]
// and whether it is an integer literal; end == i when none starts there.
// The grammar is JSON's, which strconv's is wider than (hex, infinities,
// underscores, a leading '+' or '.').
func numberEnd(b []byte, i int) (end int, integer bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return i, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		d := skipDigits(b, k)
		if d == k {
			return i, false
		}
		j, integer = d, false
	}
	return j, integer
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// floatLiteral converts one Data element with strconv.ParseFloat, the
// function encoding/json hands the same literal to; one it rejects (out of
// range) is left to encoding/json to report.
func floatLiteral(lit []byte, _ bool) (float64, bool) {
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// dimLiteral converts one Shape element: an integer literal short enough
// to fit an int on every platform. Longer or fractional ones are left to
// encoding/json.
func dimLiteral(lit []byte, integer bool) (int, bool) {
	if !integer || len(lit) > 9 {
		return 0, false
	}
	d, err := strconv.Atoi(string(lit))
	return d, err == nil
}
