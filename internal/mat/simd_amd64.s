// AVX2+FMA kernels for the float32 fast path. Only the float32
// instantiations of the generic kernels use these: the float64 kernels carry
// a bit-identical accumulation-order pin and stay pure Go. Each routine is a NOSPLIT leaf over caller-validated slices,
// processes full eight-lane stripes, and leaves sub-stripe tails to scalar Go
// (dotCols32 / Tanh32), so no masked loads are needed.

#include "textflag.h"

// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaRow(oi *float32, n int, a *float32, astride int, kk int, b *float32, bstride int)
//
// For j in [0, n&^7):  oi[j] = Σ_{k<kk} a[k*astride] · b[k*bstride+j]
//
// One call computes the full-stripe part of one output row of a matmul: the
// coefficient vector is broadcast element by element and FMAed against rows
// of b, eight columns at a time. astride=1 gives the forward kernel (row of
// a times b); astride=lda gives the aᵀ·b gradient kernel without
// materializing the transpose. Four accumulators hide the FMA latency; their
// final reduction order is fixed, so results are deterministic and
// independent of how callers split the row range across goroutines.
TEXT ·fmaRow(SB), NOSPLIT, $0-56
	MOVQ oi+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ a+16(FP), R13
	MOVQ astride+24(FP), R11
	SHLQ $2, R11              // coefficient stride in bytes
	MOVQ kk+32(FP), CX
	MOVQ b+40(FP), DX
	MOVQ bstride+48(FP), R12
	SHLQ $2, R12              // b row stride in bytes
	ANDQ $-8, R8              // n8: full stripes only
	XORQ R9, R9               // j = 0
stripe:
	CMPQ R9, R8
	JGE  done
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DX)(R9*4), BX       // &b[j]
	MOVQ R13, AX              // &a[0]
	MOVQ CX, R10              // k remaining
	CMPQ R10, $4
	JLT  ktail
kloop:
	VBROADCASTSS (AX), Y4
	VFMADD231PS (BX), Y4, Y0
	ADDQ R11, AX
	ADDQ R12, BX
	VBROADCASTSS (AX), Y5
	VFMADD231PS (BX), Y5, Y1
	ADDQ R11, AX
	ADDQ R12, BX
	VBROADCASTSS (AX), Y6
	VFMADD231PS (BX), Y6, Y2
	ADDQ R11, AX
	ADDQ R12, BX
	VBROADCASTSS (AX), Y7
	VFMADD231PS (BX), Y7, Y3
	ADDQ R11, AX
	ADDQ R12, BX
	SUBQ $4, R10
	CMPQ R10, $4
	JGE  kloop
ktail:
	TESTQ R10, R10
	JZ   kdone
	VBROADCASTSS (AX), Y4
	VFMADD231PS (BX), Y4, Y0
	ADDQ R11, AX
	ADDQ R12, BX
	DECQ R10
	JMP  ktail
kdone:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ $8, R9
	JMP  stripe
done:
	VZEROUPPER
	RET

// func tanhBlocks(v *float32, n int, c *float32)
//
// In-place tanh over the first n&^7 elements of v: the same clamped rational
// approximation x·P(x²)/Q(x²) as the scalar Tanh32, eight lanes per
// iteration. c points at tanhConsts (bounds then the Horner coefficients in
// evaluation order); everything is hoisted into registers before the loop.
TEXT ·tanhBlocks(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), BX
	ANDQ $-8, CX
	JZ   done
	LEAQ (SI)(CX*4), DI       // end pointer
	VBROADCASTSS 0(BX), Y3    // +bound
	VBROADCASTSS 4(BX), Y4    // -bound
	VBROADCASTSS 8(BX), Y5    // alpha13
	VBROADCASTSS 12(BX), Y6   // alpha11
	VBROADCASTSS 16(BX), Y7   // alpha9
	VBROADCASTSS 20(BX), Y8   // alpha7
	VBROADCASTSS 24(BX), Y9   // alpha5
	VBROADCASTSS 28(BX), Y10  // alpha3
	VBROADCASTSS 32(BX), Y11  // alpha1
	VBROADCASTSS 36(BX), Y12  // beta6
	VBROADCASTSS 40(BX), Y13  // beta4
	VBROADCASTSS 44(BX), Y14  // beta2
	VBROADCASTSS 48(BX), Y15  // beta0
loop:
	VMOVUPS (SI), Y0          // x
	VMINPS  Y3, Y0, Y0        // clamp above
	VMAXPS  Y4, Y0, Y0        // clamp below
	VMULPS  Y0, Y0, Y1        // x²
	VMOVAPS Y5, Y2            // p = alpha13
	VFMADD213PS Y6, Y1, Y2    // p = p·x² + alpha11
	VFMADD213PS Y7, Y1, Y2
	VFMADD213PS Y8, Y1, Y2
	VFMADD213PS Y9, Y1, Y2
	VFMADD213PS Y10, Y1, Y2
	VFMADD213PS Y11, Y1, Y2   // p = p·x² + alpha1
	VMULPS  Y0, Y2, Y2        // p·x
	VMOVAPS Y12, Y0           // q = beta6 (x no longer needed)
	VFMADD213PS Y13, Y1, Y0
	VFMADD213PS Y14, Y1, Y0
	VFMADD213PS Y15, Y1, Y0   // q = q·x² + beta0
	VDIVPS  Y0, Y2, Y2        // p/q
	VMOVUPS Y2, (SI)
	ADDQ $32, SI
	CMPQ SI, DI
	JLT  loop
done:
	VZEROUPPER
	RET
