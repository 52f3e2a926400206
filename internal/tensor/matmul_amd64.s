#include "textflag.h"

// The strips behind matmul.go, one output cell per YMM lane: VMULPD then
// VADDPD (no FMA) per l, so each cell takes its reference's adds in l
// order, rounded twice. Callers check bounds and pass inner, k ≥ 1.

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE and AVX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV                // the OS saves XMM and YMM state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX          // leaf 7 exists: a CPU with XSAVE has leaf 13
	XORL  CX, CX
	CPUID
	BTL   $5, BX          // AVX2
	SETCS ret+0(FP)

done:
	RET

// func axpy(d, a, b *float64, inner, aStep, bStep, cells int)
// d[:cells] += a[l*aStep]·b[l*bStep : l*bStep+cells] for l in [0, inner),
// skipping an a that is ±0; cells is 16, 8 or 4.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ   d+0(FP), DX
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DI
	MOVQ   inner+24(FP), CX
	MOVQ   aStep+32(FP), R8
	MOVQ   bStep+40(FP), R9
	MOVQ   cells+48(FP), R10
	SHLQ   $3, R8
	SHLQ   $3, R9
	VXORPD X7, X7, X7
	CMPQ   R10, $8
	JEQ    cells8
	JLT    cells4
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3

loop16:
	VBROADCASTSD (SI), Y4
	VUCOMISD     X7, X4
	JNE          mul16
	JPC          skip16 // equal and ordered: a zero

mul16:
	VMULPD (DI), Y4, Y5
	VMULPD 32(DI), Y4, Y6
	VMULPD 64(DI), Y4, Y8
	VMULPD 96(DI), Y4, Y9
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3

skip16:
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     loop16
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	JMP     store8

cells8:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1

loop8:
	VBROADCASTSD (SI), Y4
	VUCOMISD     X7, X4
	JNE          mul8
	JPC          skip8

mul8:
	VMULPD (DI), Y4, Y5
	VMULPD 32(DI), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1

skip8:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  loop8

store8:
	VMOVUPD Y1, 32(DX)
	JMP     store4

cells4:
	VMOVUPD (DX), Y0

loop4:
	VBROADCASTSD (SI), Y4
	VUCOMISD     X7, X4
	JNE          mul4
	JPC          skip4

mul4:
	VMULPD (DI), Y4, Y5
	VADDPD Y5, Y0, Y0

skip4:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  loop4

store4:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func dot16(d, a, bt *float64, k int)
// d[c] += Σ_l a[l]·bt[l*16+c] for c in [0, 16): each sum starts from 0
// and skips nothing, and only the finished sum meets d.
TEXT ·dot16(SB), NOSPLIT, $0-32
	MOVQ   d+0(FP), DX
	MOVQ   a+8(FP), SI
	MOVQ   bt+16(FP), DI
	MOVQ   k+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dotloop:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI), Y4, Y5
	VMULPD       32(DI), Y4, Y6
	VMULPD       64(DI), Y4, Y8
	VMULPD       96(DI), Y4, Y9
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	ADDQ         $8, SI
	ADDQ         $128, DI
	DECQ         CX
	JNZ          dotloop
	VADDPD       (DX), Y0, Y0
	VADDPD       32(DX), Y1, Y1
	VADDPD       64(DX), Y2, Y2
	VADDPD       96(DX), Y3, Y3
	VMOVUPD      Y0, (DX)
	VMOVUPD      Y1, 32(DX)
	VMOVUPD      Y2, 64(DX)
	VMOVUPD      Y3, 96(DX)
	VZEROUPPER
	RET

