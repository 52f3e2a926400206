package tensor

// useAVX2 runs matmul.go's strips in matmul_amd64.s. It is read from the
// CPU once; only tests change it.
var useAVX2 = cpuAVX2()

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuAVX2() bool

//go:noescape
func axpy(d, a, b *float64, inner, aStep, bStep, cells int)

//go:noescape
func dot16(d, a, bt *float64, k int)
