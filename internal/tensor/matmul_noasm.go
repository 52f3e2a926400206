//go:build !amd64

package tensor

// Without the amd64 assembly the Go strips run everywhere.
var useAVX2 = false

func axpy(d, a, b *float64, inner, aStep, bStep, cells int) { panic("tensor: no AVX2 kernel") }

func dot16(d, a, bt *float64, k int) { panic("tensor: no AVX2 kernel") }
