#include "textflag.h"

// func taps16(out, src *float64, offs *int, kern *float64, nk, n int)
//
// out[x] = Σ_k kern[k]·src[offs[k]+x] for x in [0, n), n a positive
// multiple of 16 and nk >= 1. Each block of 16 samples keeps four YMM
// accumulators of four lanes. Every lane starts from +0 and adds the
// rounded product kern[k]·sample in ascending k: a separate VMULPD and
// VADDPD, never an FMA, so each lane makes the operations of the scalar
// loop in its order and rounds where it rounds.
TEXT ·taps16(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ kern+24(FP), R9
	MOVQ nk+32(FP), CX
	MOVQ n+40(FP), DX
	XORQ AX, AX

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R10
	XORQ   BX, BX

tap:
	MOVQ         (R8)(BX*8), R11
	LEAQ         (R10)(R11*8), R11
	VBROADCASTSD (R9)(BX*8), Y4
	VMULPD       (R11), Y4, Y5
	VMULPD       32(R11), Y4, Y6
	VMULPD       64(R11), Y4, Y7
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, CX
	JLT          tap

	LEAQ    (DI)(AX*8), R11
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     block

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
