#include "textflag.h"

// func denseTile(w, b, x, y *float64, in, out int, relu bool)
//
// Neurons go four at a time, one YMM accumulator each, so four
// independent add chains are in flight; the four lanes of an accumulator
// are the tile's four rows. A last group of fewer than four neurons
// points its spare accumulators at the layer's last neuron (weights and
// bias both), computes duplicates and stores only the neurons it owns,
// so every group runs the same loop and no load leaves the layer.
//
// Registers:
//	SI  weight cursor in neuron o's row	R10, R13, CX  rows o+1..o+3, as offsets from SI
//	DX  &b[o]				R11, R12      &w[(out-1)*in], &b[out-1]
//	DI  &y[o*4]				R9            bytes per weight row (in*8)
//	BX  neurons left			AX            x cursor, scratch
//	R8  end of x				Y12           zero, for ReLU
TEXT ·denseTile(SB), NOSPLIT, $0-49
	MOVQ w+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ y+24(FP), DI
	MOVQ in+32(FP), R9
	MOVQ out+40(FP), BX
	TESTQ BX, BX
	JZ   done
	MOVQ R9, R8
	SHLQ $5, R8
	ADDQ x+16(FP), R8
	SHLQ $3, R9
	LEAQ -1(BX), R11
	IMULQ R9, R11
	ADDQ SI, R11
	LEAQ -8(DX)(BX*8), R12
	VXORPD Y12, Y12, Y12

group:
	// Row k of the group is min(o+k, out-1).
	LEAQ (SI)(R9*1), R10
	CMPQ R10, R11
	CMOVQHI R11, R10
	SUBQ SI, R10
	LEAQ (SI)(R9*2), R13
	CMPQ R13, R11
	CMOVQHI R11, R13
	SUBQ SI, R13
	LEAQ (R9)(R9*2), CX
	ADDQ SI, CX
	CMPQ CX, R11
	CMOVQHI R11, CX
	SUBQ SI, CX

	VBROADCASTSD (DX), Y0
	LEAQ 8(DX), AX
	CMPQ AX, R12
	CMOVQHI R12, AX
	VBROADCASTSD (AX), Y1
	LEAQ 16(DX), AX
	CMPQ AX, R12
	CMOVQHI R12, AX
	VBROADCASTSD (AX), Y2
	LEAQ 24(DX), AX
	CMPQ AX, R12
	CMOVQHI R12, AX
	VBROADCASTSD (AX), Y3

	MOVQ x+16(FP), AX
	CMPQ AX, R8
	JAE  activate

step:
	// s += w*x per lane: a rounded multiply, then a rounded add.
	VMOVUPD (AX), Y4
	VBROADCASTSD (SI), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (SI)(R10*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (SI)(R13*1), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD (SI)(CX*1), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	ADDQ $32, AX
	CMPQ AX, R8
	JB   step

activate:
	// ReLU as s &^ (s < 0): an ordered compare is false for -0 and NaN,
	// so both pass through exactly as the scalar `if s < 0 { s = 0 }`.
	CMPB relu+48(FP), $0
	JEQ  store
	VCMPPD $0x11, Y12, Y0, Y9
	VANDNPD Y0, Y9, Y0
	VCMPPD $0x11, Y12, Y1, Y10
	VANDNPD Y1, Y10, Y1
	VCMPPD $0x11, Y12, Y2, Y11
	VANDNPD Y2, Y11, Y2
	VCMPPD $0x11, Y12, Y3, Y9
	VANDNPD Y3, Y9, Y3

store:
	CMPQ BX, $4
	JLT  tail
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $32, DX
	// SI has walked one row; step it three more to neuron o+4.
	LEAQ (R9)(R9*2), AX
	ADDQ AX, SI
	SUBQ $4, BX
	JNZ  group
	JMP  done

tail:
	VMOVUPD Y0, (DI)
	CMPQ BX, $2
	JLT  done
	VMOVUPD Y1, 32(DI)
	CMPQ BX, $3
	JLT  done
	VMOVUPD Y2, 64(DI)

done:
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
