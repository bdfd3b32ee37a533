#include "textflag.h"

// The training step's AVX2 kernels. Each repeats the scalar step's
// arithmetic lane by lane: a rounded multiply, then a rounded add (no
// FMA), every sum in the scalar code's order, and the accumulator as the
// first operand of each add, as the scalar loops have it. Scalar tails use
// the VEX forms, so no kernel mixes legacy SSE with YMM state.

// func trainBackward(w, gw, gb, x, dy, dx *float64, live *int, in, out int)
//
// Dense.Backward for one sample, then the gradient through the ReLU that
// produced x. For each o in ascending order whose dy[o] is not zero (NaN
// is not zero): gb[o] += dy[o], gw[o][:] += dy[o]·x[:] and dx[:] +=
// w[o][:]·dy[o]. dx starts from +0, and at the end every dx[i] whose
// x[i] <= 0 (−0 included, NaN not) is set to +0. The network's first
// layer needs no dx; its caller passes scratch rather than this kernel
// keeping a second, dx-free copy of every loop.
//
// A first pass lists the rows to run in live[0:out] without a branch,
// since which units a ReLU switched off does not predict. Columns then go
// in blocks: twenty (five vectors) when exactly twenty are left, else
// sixteen while there are sixteen, then one last block of the 1–15 left,
// 0–3 vectors and 0–3 scalar columns. A block's x columns stay in
// registers while the listed rows go by in ascending order, each adding
// its term to the block's columns of gw and to dx's column sums, which
// also stay in registers until the ReLU gate and one store.
//
// Registers:
//	SI  &w[0]		DI  &gw[0]		R12 &gb[0]	R13 &dy[0]
//	R8  &x[0]		R14 &dx[0]		R9  bytes per row (in*8)
//	R10 columns left	BX  rows listed		R11 &live[0]
//	DX  list cursor		CX  o, then its element's offset
//	AX  column offset	Y0  dy[o]	Y1, Y6-Y8, Y12  x's columns
//	Y2, Y9-Y11, Y13  dx's column sums	Y15  zero
TEXT ·trainBackward(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), SI
	MOVQ gw+8(FP), DI
	MOVQ gb+16(FP), R12
	MOVQ x+24(FP), R8
	MOVQ dy+32(FP), R13
	MOVQ dx+40(FP), R14
	MOVQ live+48(FP), R11
	MOVQ in+56(FP), R9
	SHLQ $3, R9
	VXORPD Y15, Y15, Y15

	// live[n] = o, and n counts o in when dy[o] != 0: unequal (ZF clear)
	// or unordered (PF set), read into zeroed registers so that no row
	// waits on the one before. dy is read a row at a time: it was just
	// written, by the loss or by this kernel, in stores of other widths.
	XORQ BX, BX
	XORQ CX, CX

scan:
	CMPQ CX, out+64(FP)
	JAE  bias
	VMOVSD (R13)(CX*8), X0
	XORL AX, AX
	XORL DX, DX
	VUCOMISD X15, X0
	SETNE AX
	SETPS DX
	ORL  DX, AX
	MOVQ CX, (R11)(BX*8)
	ADDQ AX, BX
	INCQ CX
	JMP  scan

bias:
	XORQ DX, DX

biasrow:
	CMPQ DX, BX
	JAE  columns
	MOVQ (R11)(DX*8), CX
	VMOVSD (R12)(CX*8), X1
	VADDSD (R13)(CX*8), X1, X1
	VMOVSD X1, (R12)(CX*8)
	INCQ DX
	JMP  biasrow

columns:
	// The last block's parts run by branches that go the same way for
	// every row. R10 counts the columns left.
	XORQ AX, AX
	MOVQ in+56(FP), R10

both16:
	CMPQ R10, $20
	JEQ  both20
	CMPQ R10, $16
	JB   bothlast
	VMOVUPD (R8)(AX*1), Y1
	VMOVUPD 32(R8)(AX*1), Y6
	VMOVUPD 64(R8)(AX*1), Y7
	VMOVUPD 96(R8)(AX*1), Y8
	VXORPD Y2, Y2, Y2
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ DX, DX

both16row:
	CMPQ DX, BX
	JAE  both16store
	MOVQ (R11)(DX*8), CX
	INCQ DX
	VBROADCASTSD (R13)(CX*8), Y0
	IMULQ R9, CX
	ADDQ AX, CX
	VMULPD Y1, Y0, Y3
	VMOVUPD 0(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 0(DI)(CX*1)
	VMOVUPD 0(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y2, Y2
	VMULPD Y6, Y0, Y3
	VMOVUPD 32(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 32(DI)(CX*1)
	VMOVUPD 32(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y9, Y9
	VMULPD Y7, Y0, Y3
	VMOVUPD 64(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 64(DI)(CX*1)
	VMOVUPD 64(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y10, Y10
	VMULPD Y8, Y0, Y3
	VMOVUPD 96(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 96(DI)(CX*1)
	VMOVUPD 96(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y11, Y11
	JMP  both16row

both16store:
	// dx &^ (x <= 0): the ordered compare is true for ±0 and false for
	// NaN, as the scalar `if a <= 0 { g = 0 }`.
	VCMPPD $0x12, Y15, Y1, Y3
	VANDNPD Y2, Y3, Y2
	VMOVUPD Y2, 0(R14)(AX*1)
	VCMPPD $0x12, Y15, Y6, Y3
	VANDNPD Y9, Y3, Y9
	VMOVUPD Y9, 32(R14)(AX*1)
	VCMPPD $0x12, Y15, Y7, Y3
	VANDNPD Y10, Y3, Y10
	VMOVUPD Y10, 64(R14)(AX*1)
	VCMPPD $0x12, Y15, Y8, Y3
	VANDNPD Y11, Y3, Y11
	VMOVUPD Y11, 96(R14)(AX*1)
	ADDQ $128, AX
	SUBQ $16, R10
	JMP  both16

both20:
	// Twenty columns, five vectors: the paper's hidden width in one pass.
	VMOVUPD 0(R8)(AX*1), Y1
	VMOVUPD 32(R8)(AX*1), Y6
	VMOVUPD 64(R8)(AX*1), Y7
	VMOVUPD 96(R8)(AX*1), Y8
	VMOVUPD 128(R8)(AX*1), Y12
	VXORPD Y2, Y2, Y2
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y13, Y13, Y13
	XORQ DX, DX

both20row:
	CMPQ DX, BX
	JAE  both20store
	MOVQ (R11)(DX*8), CX
	INCQ DX
	VBROADCASTSD (R13)(CX*8), Y0
	IMULQ R9, CX
	ADDQ AX, CX
	VMULPD Y1, Y0, Y3
	VMOVUPD 0(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 0(DI)(CX*1)
	VMOVUPD 0(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y2, Y2
	VMULPD Y6, Y0, Y3
	VMOVUPD 32(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 32(DI)(CX*1)
	VMOVUPD 32(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y9, Y9
	VMULPD Y7, Y0, Y3
	VMOVUPD 64(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 64(DI)(CX*1)
	VMOVUPD 64(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y10, Y10
	VMULPD Y8, Y0, Y3
	VMOVUPD 96(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 96(DI)(CX*1)
	VMOVUPD 96(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y11, Y11
	VMULPD Y12, Y0, Y3
	VMOVUPD 128(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 128(DI)(CX*1)
	VMOVUPD 128(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y13, Y13
	JMP  both20row

both20store:
	VCMPPD $0x12, Y15, Y1, Y3
	VANDNPD Y2, Y3, Y2
	VMOVUPD Y2, 0(R14)(AX*1)
	VCMPPD $0x12, Y15, Y6, Y3
	VANDNPD Y9, Y3, Y9
	VMOVUPD Y9, 32(R14)(AX*1)
	VCMPPD $0x12, Y15, Y7, Y3
	VANDNPD Y10, Y3, Y10
	VMOVUPD Y10, 64(R14)(AX*1)
	VCMPPD $0x12, Y15, Y8, Y3
	VANDNPD Y11, Y3, Y11
	VMOVUPD Y11, 96(R14)(AX*1)
	VCMPPD $0x12, Y15, Y12, Y3
	VANDNPD Y13, Y3, Y13
	VMOVUPD Y13, 128(R14)(AX*1)
	ADDQ $160, AX
	SUBQ $20, R10
	JMP  both16

bothlast:
	// Y1, Y6, Y7 hold x's vectors and X8, X11, X15 its scalar columns;
	// Y2, Y9, Y10 and X12-X14 the matching dx sums. R12 (gb is done with)
	// is the scalar columns' byte offset in the block.
	TESTQ R10, R10
	JZ   end
	MOVQ R10, R12
	ANDQ $~3, R12
	SHLQ $3, R12
	VXORPD Y2, Y2, Y2
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD X12, X12, X12
	VXORPD X13, X13, X13
	VXORPD X14, X14, X14
	CMPQ R10, $4
	JB   bothlastx
	VMOVUPD (R8)(AX*1), Y1
	CMPQ R10, $8
	JB   bothlastx
	VMOVUPD 32(R8)(AX*1), Y6
	CMPQ R10, $12
	JB   bothlastx
	VMOVUPD 64(R8)(AX*1), Y7

bothlastx:
	LEAQ (R8)(AX*1), CX
	ADDQ R12, CX
	TESTQ $3, R10
	JZ   bothlastgo
	VMOVSD (CX), X8
	TESTQ $2, R10
	JZ   bothlastgo
	VMOVSD 8(CX), X11
	TESTQ $1, R10
	JZ   bothlastgo
	VMOVSD 16(CX), X15

bothlastgo:
	XORQ DX, DX

bothlastrow:
	CMPQ DX, BX
	JAE  bothlaststore
	MOVQ (R11)(DX*8), CX
	INCQ DX
	VBROADCASTSD (R13)(CX*8), Y0
	IMULQ R9, CX
	ADDQ AX, CX
	CMPQ R10, $4
	JB   bothlasttail
	VMULPD Y1, Y0, Y3
	VMOVUPD 0(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 0(DI)(CX*1)
	VMOVUPD 0(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y2, Y2
	CMPQ R10, $8
	JB   bothlasttail
	VMULPD Y6, Y0, Y3
	VMOVUPD 32(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 32(DI)(CX*1)
	VMOVUPD 32(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y9, Y9
	CMPQ R10, $12
	JB   bothlasttail
	VMULPD Y7, Y0, Y3
	VMOVUPD 64(DI)(CX*1), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 64(DI)(CX*1)
	VMOVUPD 64(SI)(CX*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y10, Y10

bothlasttail:
	TESTQ $3, R10
	JZ   bothlastrow
	ADDQ R12, CX
	VMULSD X8, X0, X3
	VMOVSD 0(DI)(CX*1), X4
	VADDSD X3, X4, X4
	VMOVSD X4, 0(DI)(CX*1)
	VMOVSD 0(SI)(CX*1), X5
	VMULSD X0, X5, X5
	VADDSD X5, X12, X12
	TESTQ $2, R10
	JZ   bothlastrow
	VMULSD X11, X0, X3
	VMOVSD 8(DI)(CX*1), X4
	VADDSD X3, X4, X4
	VMOVSD X4, 8(DI)(CX*1)
	VMOVSD 8(SI)(CX*1), X5
	VMULSD X0, X5, X5
	VADDSD X5, X13, X13
	TESTQ $1, R10
	JZ   bothlastrow
	VMULSD X15, X0, X3
	VMOVSD 16(DI)(CX*1), X4
	VADDSD X3, X4, X4
	VMOVSD X4, 16(DI)(CX*1)
	VMOVSD 16(SI)(CX*1), X5
	VMULSD X0, X5, X5
	VADDSD X5, X14, X14
	JMP  bothlastrow

bothlaststore:
	VXORPD Y3, Y3, Y3
	CMPQ R10, $4
	JB   bothlaststoretail
	VCMPPD $0x12, Y3, Y1, Y4
	VANDNPD Y2, Y4, Y2
	VMOVUPD Y2, 0(R14)(AX*1)
	CMPQ R10, $8
	JB   bothlaststoretail
	VCMPPD $0x12, Y3, Y6, Y4
	VANDNPD Y9, Y4, Y9
	VMOVUPD Y9, 32(R14)(AX*1)
	CMPQ R10, $12
	JB   bothlaststoretail
	VCMPPD $0x12, Y3, Y7, Y4
	VANDNPD Y10, Y4, Y10
	VMOVUPD Y10, 64(R14)(AX*1)

bothlaststoretail:
	LEAQ (R14)(AX*1), CX
	ADDQ R12, CX
	TESTQ $3, R10
	JZ   end
	VCMPSD $0x12, X3, X8, X4
	VANDNPD X12, X4, X12
	VMOVSD X12, 0(CX)
	TESTQ $2, R10
	JZ   end
	VCMPSD $0x12, X3, X11, X4
	VANDNPD X13, X4, X13
	VMOVSD X13, 8(CX)
	TESTQ $1, R10
	JZ   end
	VCMPSD $0x12, X3, X15, X4
	VANDNPD X14, X4, X14
	VMOVSD X14, 16(CX)
	JMP  end

end:
	VZEROUPPER
	RET

// func adamStep(w, grad, m, v, mask *float64, n int, c *adamCoef)
//
// Adam.Step over n elements, n a multiple of four: per element
//	g  = grad·scale
//	m  = β1·m + (1−β1)·g
//	v  = β2·v + (1−β2)·g·g
//	w -= lr·(m/bc1) / (sqrt(v/bc2) + ε)
// and then, when mask is not nil, w and grad set to +0 wherever mask == 0
// (Dense.ApplyMask). VDIVPD and VSQRTPD round correctly, as the scalar
// division and math.Sqrt do.
//
// Registers: Y6..Y14 the coefficients, in adamCoef's order; Y15 zero.
TEXT ·adamStep(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ mask+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ c+48(FP), AX
	VBROADCASTSD 0(AX), Y6  // scale
	VBROADCASTSD 8(AX), Y7  // β1
	VBROADCASTSD 16(AX), Y8 // 1−β1
	VBROADCASTSD 24(AX), Y9 // β2
	VBROADCASTSD 32(AX), Y10 // 1−β2
	VBROADCASTSD 40(AX), Y11 // lr
	VBROADCASTSD 48(AX), Y12 // bc1
	VBROADCASTSD 56(AX), Y13 // bc2
	VBROADCASTSD 64(AX), Y14 // ε
	VXORPD Y15, Y15, Y15
	SHLQ $3, CX
	XORQ AX, AX

elem:
	CMPQ AX, CX
	JAE  adamdone
	VMOVUPD (SI)(AX*1), Y0
	VMULPD Y6, Y0, Y0
	VMULPD (R8)(AX*1), Y7, Y1
	VMULPD Y0, Y8, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	VMULPD (R9)(AX*1), Y9, Y3
	VMULPD Y0, Y10, Y4
	VMULPD Y0, Y4, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*1)
	VDIVPD Y12, Y1, Y1
	VMULPD Y1, Y11, Y1
	VDIVPD Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD Y14, Y3, Y3
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD Y1, Y2, Y2
	TESTQ R10, R10
	JZ   store
	VMOVUPD (R10)(AX*1), Y4
	VCMPPD $0x00, Y15, Y4, Y4
	VANDNPD Y2, Y4, Y2
	VANDNPD (SI)(AX*1), Y4, Y5
	VMOVUPD Y5, (SI)(AX*1)

store:
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	JMP  elem

adamdone:
	VZEROUPPER
	RET
