#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// The conv block kernels share one layout. R12 is the current block's
// first column (in bytes of the output row for fp32, in columns for
// int8) and R10 the distance between two taps' weight rows. A block
// walks rows kernel rows of run taps with its accumulators in Y0-Y3
// (X0 and X2 in 4-wide blocks), then stores them once: the weight rows
// through DX (kernel row, R9 apart for fp32, R13 for int8) and DI (tap),
// the taps through SI, which fp32 blocks step along x (AX per kernel
// row, R13 apart) and int8 blocks along buf. The callers guarantee
// rows >= 1, run >= 1 and n >= 4. After the 16-wide blocks come 8-wide
// ones; when n%8 != 0 a last 8-wide block starts at column n-8 and
// recomputes, bit for bit, the columns it shares with the block before.
// With 4 <= n < 8 the blocks are 4 wide (XMM), the last at column n-4.
//
// fp32 blocks multiply with VMULPS and add with VADDPS, never a fused
// multiply-add, taps ascending from +0: every output element sees the
// float32 operations of the portable kernels in the same order. Y12
// collects the NaN lanes of every stored accumulator.

// func convPairAVX2(x, w, o0, o1 *float32, rows, run, xrow, next, wrow, n int) (nan bool)
TEXT ·convPairAVX2(SB), NOSPLIT, $0-81
	MOVQ	n+72(FP), R10
	SHLQ	$2, R10
	MOVQ	next+56(FP), R11
	SHLQ	$2, R11
	MOVQ	xrow+48(FP), R13
	SHLQ	$2, R13
	MOVQ	wrow+64(FP), R9
	SHLQ	$2, R9
	XORQ	R12, R12
	VXORPS	Y12, Y12, Y12

pair16:
	LEAQ	64(R12), AX
	CMPQ	AX, R10
	JGT	pair8
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+32(FP), CX

pair16row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+40(FP), BX

pair16tap:
	VBROADCASTSS	(SI), Y4
	VBROADCASTSS	(SI)(R11*1), Y5
	VMOVUPS	(DI), Y6
	VMOVUPS	32(DI), Y7
	VMULPS	Y6, Y4, Y8
	VADDPS	Y8, Y0, Y0
	VMULPS	Y7, Y4, Y9
	VADDPS	Y9, Y1, Y1
	VMULPS	Y6, Y5, Y10
	VADDPS	Y10, Y2, Y2
	VMULPS	Y7, Y5, Y11
	VADDPS	Y11, Y3, Y3
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pair16tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pair16row

	MOVQ	o0+16(FP), R8
	VMOVUPS	Y0, (R8)(R12*1)
	VMOVUPS	Y1, 32(R8)(R12*1)
	MOVQ	o1+24(FP), R8
	VMOVUPS	Y2, (R8)(R12*1)
	VMOVUPS	Y3, 32(R8)(R12*1)
	VCMPPS	$3, Y0, Y1, Y4
	VCMPPS	$3, Y2, Y3, Y5
	VORPS	Y4, Y12, Y12
	VORPS	Y5, Y12, Y12
	ADDQ	$64, R12
	JMP	pair16

pair8:
	LEAQ	32(R12), AX
	CMPQ	AX, R10
	JGT	pairtail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y2, Y2, Y2
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+32(FP), CX

pair8row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+40(FP), BX

pair8tap:
	VBROADCASTSS	(SI), Y4
	VBROADCASTSS	(SI)(R11*1), Y5
	VMOVUPS	(DI), Y6
	VMULPS	Y6, Y4, Y8
	VADDPS	Y8, Y0, Y0
	VMULPS	Y6, Y5, Y10
	VADDPS	Y10, Y2, Y2
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pair8tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pair8row

	MOVQ	o0+16(FP), R8
	VMOVUPS	Y0, (R8)(R12*1)
	MOVQ	o1+24(FP), R8
	VMOVUPS	Y2, (R8)(R12*1)
	VCMPPS	$3, Y0, Y2, Y4
	VORPS	Y4, Y12, Y12
	ADDQ	$32, R12
	JMP	pair8

pairtail:
	CMPQ	R12, R10
	JGE	pairdone
	CMPQ	R10, $32
	JLT	pair4
	LEAQ	-32(R10), R12
	JMP	pair8

pair4:
	LEAQ	16(R12), AX
	CMPQ	AX, R10
	JGT	pairtail4
	VXORPS	X0, X0, X0
	VXORPS	X2, X2, X2
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+32(FP), CX

pair4row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+40(FP), BX

pair4tap:
	VBROADCASTSS	(SI), X4
	VBROADCASTSS	(SI)(R11*1), X5
	VMOVUPS	(DI), X6
	VMULPS	X6, X4, X8
	VADDPS	X8, X0, X0
	VMULPS	X6, X5, X10
	VADDPS	X10, X2, X2
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pair4tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pair4row

	MOVQ	o0+16(FP), R8
	VMOVUPS	X0, (R8)(R12*1)
	MOVQ	o1+24(FP), R8
	VMOVUPS	X2, (R8)(R12*1)
	VCMPPS	$3, X0, X2, X4
	VORPS	Y4, Y12, Y12
	ADDQ	$16, R12
	JMP	pair4

pairtail4:
	CMPQ	R12, R10
	JGE	pairdone
	LEAQ	-16(R10), R12
	JMP	pair4

pairdone:
	VMOVMSKPS	Y12, AX
	TESTL	AX, AX
	SETNE	nan+80(FP)
	VZEROUPPER
	RET

// func convPixelAVX2(x, w, o *float32, rows, run, xrow, wrow, n int) (nan bool)
TEXT ·convPixelAVX2(SB), NOSPLIT, $0-65
	MOVQ	n+56(FP), R10
	SHLQ	$2, R10
	MOVQ	xrow+40(FP), R13
	SHLQ	$2, R13
	MOVQ	wrow+48(FP), R9
	SHLQ	$2, R9
	XORQ	R12, R12
	VXORPS	Y12, Y12, Y12

pix16:
	LEAQ	64(R12), AX
	CMPQ	AX, R10
	JGT	pix8
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+24(FP), CX

pix16row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+32(FP), BX

pix16tap:
	VBROADCASTSS	(SI), Y4
	VMULPS	(DI), Y4, Y8
	VADDPS	Y8, Y0, Y0
	VMULPS	32(DI), Y4, Y9
	VADDPS	Y9, Y1, Y1
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pix16tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pix16row

	MOVQ	o+16(FP), R8
	VMOVUPS	Y0, (R8)(R12*1)
	VMOVUPS	Y1, 32(R8)(R12*1)
	VCMPPS	$3, Y0, Y1, Y4
	VORPS	Y4, Y12, Y12
	ADDQ	$64, R12
	JMP	pix16

pix8:
	LEAQ	32(R12), AX
	CMPQ	AX, R10
	JGT	pixtail
	VXORPS	Y0, Y0, Y0
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+24(FP), CX

pix8row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+32(FP), BX

pix8tap:
	VBROADCASTSS	(SI), Y4
	VMULPS	(DI), Y4, Y8
	VADDPS	Y8, Y0, Y0
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pix8tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pix8row

	MOVQ	o+16(FP), R8
	VMOVUPS	Y0, (R8)(R12*1)
	VCMPPS	$3, Y0, Y0, Y4
	VORPS	Y4, Y12, Y12
	ADDQ	$32, R12
	JMP	pix8

pixtail:
	CMPQ	R12, R10
	JGE	pixdone
	CMPQ	R10, $32
	JLT	pix4
	LEAQ	-32(R10), R12
	JMP	pix8

pix4:
	LEAQ	16(R12), AX
	CMPQ	AX, R10
	JGT	pixtail4
	VXORPS	X0, X0, X0
	MOVQ	x+0(FP), AX
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+24(FP), CX

pix4row:
	MOVQ	AX, SI
	MOVQ	DX, DI
	MOVQ	run+32(FP), BX

pix4tap:
	VBROADCASTSS	(SI), X4
	VMULPS	(DI), X4, X8
	VADDPS	X8, X0, X0
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	pix4tap
	ADDQ	R13, AX
	ADDQ	R9, DX
	DECQ	CX
	JNZ	pix4row

	MOVQ	o+16(FP), R8
	VMOVUPS	X0, (R8)(R12*1)
	VCMPPS	$3, X0, X0, X4
	VORPS	Y4, Y12, Y12
	ADDQ	$16, R12
	JMP	pix4

pixtail4:
	CMPQ	R12, R10
	JGE	pixdone
	LEAQ	-16(R10), R12
	JMP	pix4

pixdone:
	VMOVMSKPS	Y12, AX
	TESTL	AX, AX
	SETNE	nan+64(FP)
	VZEROUPPER
	RET

// The int8 kernels first write each pixel's window taps x-za to buf as
// int32 lanes holding the value's 16-bit two's complement in the low
// half and 0 in the high half (|x-za| <= 255 for an int8 zero point).
// A block then broadcasts a tap from buf, sign-extends eight weights to
// int32 lanes with VPMOVSXBD (low half w, high half 0 or -1) and
// multiplies with VPMADDWD: low·low + high·high = (x-za)·w + 0, exactly
// the int32 product the portable kernels form. VPADDD wraps like Go's
// int32 adds, so the sums are exact whatever the order.

// QSETUP loads Y13 = za and Y14 = 0xffff into every lane.
#define QSETUP(zaArg) \
	MOVQ	zaArg, AX \
	VMOVD	AX, X13 \
	VPBROADCASTD	X13, Y13 \
	MOVL	$0xffff, AX \
	VMOVD	AX, X14 \
	VPBROADCASTD	X14, Y14

// The conversion loops walk the rows kernel rows of run taps from x
// (rows apart by xrow bytes) and write them to buf in order: eight at a
// time with VPMOVSXBD while eight remain in the row, then one at a
// time, so no read goes past a row's last tap. The pair kernel writes
// its second pixel's taps (x+next) R8 bytes further on.

// func qconvPairAVX2(x, w *int8, acc0, acc1, buf *int32, za, rows, run, xrow, next, wrow, n int)
TEXT ·qconvPairAVX2(SB), NOSPLIT, $0-96
	QSETUP(za+40(FP))
	MOVQ	rows+48(FP), R8
	IMULQ	run+56(FP), R8
	SHLQ	$2, R8
	MOVQ	next+72(FP), R11
	MOVQ	x+0(FP), SI
	MOVQ	buf+32(FP), DI
	MOVQ	rows+48(FP), CX

qpaircvrow:
	MOVQ	SI, AX
	MOVQ	run+56(FP), BX

qpaircv8:
	CMPQ	BX, $8
	JLT	qpaircv1
	VPMOVSXBD	(AX), Y0
	VPMOVSXBD	(AX)(R11*1), Y1
	VPSUBD	Y13, Y0, Y0
	VPSUBD	Y13, Y1, Y1
	VPAND	Y14, Y0, Y0
	VPAND	Y14, Y1, Y1
	VMOVDQU	Y0, (DI)
	VMOVDQU	Y1, (DI)(R8*1)
	ADDQ	$8, AX
	ADDQ	$32, DI
	SUBQ	$8, BX
	JMP	qpaircv8

qpaircv1:
	TESTQ	BX, BX
	JZ	qpaircvnext
	MOVBQSX	(AX), DX
	SUBQ	za+40(FP), DX
	ANDL	$0xffff, DX
	MOVL	DX, (DI)
	MOVBQSX	(AX)(R11*1), DX
	SUBQ	za+40(FP), DX
	ANDL	$0xffff, DX
	MOVL	DX, (DI)(R8*1)
	INCQ	AX
	ADDQ	$4, DI
	DECQ	BX
	JMP	qpaircv1

qpaircvnext:
	ADDQ	xrow+64(FP), SI
	DECQ	CX
	JNZ	qpaircvrow

	MOVQ	n+88(FP), R10
	MOVQ	wrow+80(FP), R13
	XORQ	R12, R12

qpair16:
	LEAQ	16(R12), AX
	CMPQ	AX, R10
	JGT	qpair8
	VPXOR	Y0, Y0, Y0
	VPXOR	Y1, Y1, Y1
	VPXOR	Y2, Y2, Y2
	VPXOR	Y3, Y3, Y3
	MOVQ	buf+32(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+48(FP), CX

qpair16row:
	MOVQ	DX, DI
	MOVQ	run+56(FP), BX

qpair16tap:
	VPBROADCASTD	(SI), Y4
	VPBROADCASTD	(SI)(R8*1), Y5
	VPMOVSXBD	(DI), Y6
	VPMOVSXBD	8(DI), Y7
	VPMADDWD	Y6, Y4, Y8
	VPADDD	Y8, Y0, Y0
	VPMADDWD	Y7, Y4, Y9
	VPADDD	Y9, Y1, Y1
	VPMADDWD	Y6, Y5, Y10
	VPADDD	Y10, Y2, Y2
	VPMADDWD	Y7, Y5, Y11
	VPADDD	Y11, Y3, Y3
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpair16tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpair16row

	MOVQ	acc0+16(FP), AX
	VMOVDQU	Y0, (AX)(R12*4)
	VMOVDQU	Y1, 32(AX)(R12*4)
	MOVQ	acc1+24(FP), AX
	VMOVDQU	Y2, (AX)(R12*4)
	VMOVDQU	Y3, 32(AX)(R12*4)
	ADDQ	$16, R12
	JMP	qpair16

qpair8:
	LEAQ	8(R12), AX
	CMPQ	AX, R10
	JGT	qpairtail
	VPXOR	Y0, Y0, Y0
	VPXOR	Y2, Y2, Y2
	MOVQ	buf+32(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+48(FP), CX

qpair8row:
	MOVQ	DX, DI
	MOVQ	run+56(FP), BX

qpair8tap:
	VPBROADCASTD	(SI), Y4
	VPBROADCASTD	(SI)(R8*1), Y5
	VPMOVSXBD	(DI), Y6
	VPMADDWD	Y6, Y4, Y8
	VPADDD	Y8, Y0, Y0
	VPMADDWD	Y6, Y5, Y10
	VPADDD	Y10, Y2, Y2
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpair8tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpair8row

	MOVQ	acc0+16(FP), AX
	VMOVDQU	Y0, (AX)(R12*4)
	MOVQ	acc1+24(FP), AX
	VMOVDQU	Y2, (AX)(R12*4)
	ADDQ	$8, R12
	JMP	qpair8

qpairtail:
	CMPQ	R12, R10
	JGE	qpairdone
	CMPQ	R10, $8
	JLT	qpair4
	LEAQ	-8(R10), R12
	JMP	qpair8

qpair4:
	LEAQ	4(R12), AX
	CMPQ	AX, R10
	JGT	qpairtail4
	VPXOR	X0, X0, X0
	VPXOR	X2, X2, X2
	MOVQ	buf+32(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+48(FP), CX

qpair4row:
	MOVQ	DX, DI
	MOVQ	run+56(FP), BX

qpair4tap:
	VPBROADCASTD	(SI), X4
	VPBROADCASTD	(SI)(R8*1), X5
	VPMOVSXBD	(DI), X6
	VPMADDWD	X6, X4, X8
	VPADDD	X8, X0, X0
	VPMADDWD	X6, X5, X10
	VPADDD	X10, X2, X2
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpair4tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpair4row

	MOVQ	acc0+16(FP), AX
	VMOVDQU	X0, (AX)(R12*4)
	MOVQ	acc1+24(FP), AX
	VMOVDQU	X2, (AX)(R12*4)
	ADDQ	$4, R12
	JMP	qpair4

qpairtail4:
	CMPQ	R12, R10
	JGE	qpairdone
	LEAQ	-4(R10), R12
	JMP	qpair4

qpairdone:
	VZEROUPPER
	RET

// func qconvPixelAVX2(x, w *int8, acc, buf *int32, za, rows, run, xrow, wrow, n int)
TEXT ·qconvPixelAVX2(SB), NOSPLIT, $0-80
	QSETUP(za+32(FP))
	MOVQ	x+0(FP), SI
	MOVQ	buf+24(FP), DI
	MOVQ	rows+40(FP), CX

qpixcvrow:
	MOVQ	SI, AX
	MOVQ	run+48(FP), BX

qpixcv8:
	CMPQ	BX, $8
	JLT	qpixcv1
	VPMOVSXBD	(AX), Y0
	VPSUBD	Y13, Y0, Y0
	VPAND	Y14, Y0, Y0
	VMOVDQU	Y0, (DI)
	ADDQ	$8, AX
	ADDQ	$32, DI
	SUBQ	$8, BX
	JMP	qpixcv8

qpixcv1:
	TESTQ	BX, BX
	JZ	qpixcvnext
	MOVBQSX	(AX), DX
	SUBQ	za+32(FP), DX
	ANDL	$0xffff, DX
	MOVL	DX, (DI)
	INCQ	AX
	ADDQ	$4, DI
	DECQ	BX
	JMP	qpixcv1

qpixcvnext:
	ADDQ	xrow+56(FP), SI
	DECQ	CX
	JNZ	qpixcvrow

	MOVQ	n+72(FP), R10
	MOVQ	wrow+64(FP), R13
	XORQ	R12, R12

qpix16:
	LEAQ	16(R12), AX
	CMPQ	AX, R10
	JGT	qpix8
	VPXOR	Y0, Y0, Y0
	VPXOR	Y1, Y1, Y1
	MOVQ	buf+24(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+40(FP), CX

qpix16row:
	MOVQ	DX, DI
	MOVQ	run+48(FP), BX

qpix16tap:
	VPBROADCASTD	(SI), Y4
	VPMOVSXBD	(DI), Y6
	VPMOVSXBD	8(DI), Y7
	VPMADDWD	Y6, Y4, Y8
	VPADDD	Y8, Y0, Y0
	VPMADDWD	Y7, Y4, Y9
	VPADDD	Y9, Y1, Y1
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpix16tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpix16row

	MOVQ	acc+16(FP), AX
	VMOVDQU	Y0, (AX)(R12*4)
	VMOVDQU	Y1, 32(AX)(R12*4)
	ADDQ	$16, R12
	JMP	qpix16

qpix8:
	LEAQ	8(R12), AX
	CMPQ	AX, R10
	JGT	qpixtail
	VPXOR	Y0, Y0, Y0
	MOVQ	buf+24(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+40(FP), CX

qpix8row:
	MOVQ	DX, DI
	MOVQ	run+48(FP), BX

qpix8tap:
	VPBROADCASTD	(SI), Y4
	VPMOVSXBD	(DI), Y6
	VPMADDWD	Y6, Y4, Y8
	VPADDD	Y8, Y0, Y0
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpix8tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpix8row

	MOVQ	acc+16(FP), AX
	VMOVDQU	Y0, (AX)(R12*4)
	ADDQ	$8, R12
	JMP	qpix8

qpixtail:
	CMPQ	R12, R10
	JGE	qpixdone
	CMPQ	R10, $8
	JLT	qpix4
	LEAQ	-8(R10), R12
	JMP	qpix8

qpix4:
	LEAQ	4(R12), AX
	CMPQ	AX, R10
	JGT	qpixtail4
	VPXOR	X0, X0, X0
	MOVQ	buf+24(FP), SI
	MOVQ	w+8(FP), DX
	ADDQ	R12, DX
	MOVQ	rows+40(FP), CX

qpix4row:
	MOVQ	DX, DI
	MOVQ	run+48(FP), BX

qpix4tap:
	VPBROADCASTD	(SI), X4
	VPMOVSXBD	(DI), X6
	VPMADDWD	X6, X4, X8
	VPADDD	X8, X0, X0
	ADDQ	$4, SI
	ADDQ	R10, DI
	DECQ	BX
	JNZ	qpix4tap
	ADDQ	R13, DX
	DECQ	CX
	JNZ	qpix4row

	MOVQ	acc+16(FP), AX
	VMOVDQU	X0, (AX)(R12*4)
	ADDQ	$4, R12
	JMP	qpix4

qpixtail4:
	CMPQ	R12, R10
	JGE	qpixdone
	LEAQ	-4(R10), R12
	JMP	qpix4

qpixdone:
	VZEROUPPER
	RET

// tailmask holds eight all-ones lanes and then eight zero lanes: the 8
// lanes at byte offset 32-4r enable the first r of a block.
DATA tailmask<>+0(SB)/4, $0xffffffff
DATA tailmask<>+4(SB)/4, $0xffffffff
DATA tailmask<>+8(SB)/4, $0xffffffff
DATA tailmask<>+12(SB)/4, $0xffffffff
DATA tailmask<>+16(SB)/4, $0xffffffff
DATA tailmask<>+20(SB)/4, $0xffffffff
DATA tailmask<>+24(SB)/4, $0xffffffff
DATA tailmask<>+28(SB)/4, $0xffffffff
DATA tailmask<>+32(SB)/4, $0
DATA tailmask<>+36(SB)/4, $0
DATA tailmask<>+40(SB)/4, $0
DATA tailmask<>+44(SB)/4, $0
DATA tailmask<>+48(SB)/4, $0
DATA tailmask<>+52(SB)/4, $0
DATA tailmask<>+56(SB)/4, $0
DATA tailmask<>+60(SB)/4, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// RELUCLAMP applies ReLU (when Y11 is all ones) and the clamp to the
// lanes of v, using t as scratch. Y12 is +0, Y13 lo and Y14 hi.
// VMAXPS with v first is v > +0 ? v : +0, the scalar !(v > 0) rule
// (NaN and -0 give +0); VBLENDVPS keeps v where Y11 is zero. The clamp
// is lo > v ? lo : v and then hi < v ? hi : v, which is the scalar
// "v < lo, else v > hi" whenever lo <= hi (the callers guarantee it):
// ties and NaN keep v, bit for bit.
#define RELUCLAMP(v, t) \
	VMAXPS	Y12, v, t; \
	VBLENDVPS	Y11, t, v, v; \
	VMAXPS	v, Y13, v; \
	VMINPS	v, Y14, v

// func epilogueAVX2(dst, src, vec *float32, n, c int, lo, hi float32, relu bool)
//
// Writes bias? → ReLU? → clamp of src[0:n] into dst[0:n]. With vec
// non-nil, n is a multiple of c and every pixel of c elements adds
// vec[0:c] with VADDPS, src's lane first, like the scalar v += vec[ch]:
// whole 8-lane blocks and then one block of c%8 masked lanes. Without
// vec the span runs in 32- and 8-lane blocks and one masked tail. A
// caller with no clamp passes lo = -Inf and hi = +Inf, under which the
// clamp keeps every lane, NaN included.
TEXT ·epilogueAVX2(SB), NOSPLIT, $0-49
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	vec+16(FP), DX
	MOVQ	n+24(FP), CX
	SHLQ	$2, CX
	VBROADCASTSS	lo+40(FP), Y13
	VBROADCASTSS	hi+44(FP), Y14
	VXORPS	Y12, Y12, Y12
	VXORPS	Y11, Y11, Y11
	MOVBLZX	relu+48(FP), AX
	TESTL	AX, AX
	JZ	epistart
	VPCMPEQD	Y11, Y11, Y11

epistart:
	LEAQ	tailmask<>(SB), R10
	XORQ	AX, AX
	TESTQ	DX, DX
	JNZ	epibias

epi32:
	LEAQ	128(AX), BX
	CMPQ	BX, CX
	JGT	epi8
	VMOVUPS	(SI)(AX*1), Y0
	VMOVUPS	32(SI)(AX*1), Y1
	VMOVUPS	64(SI)(AX*1), Y2
	VMOVUPS	96(SI)(AX*1), Y3
	RELUCLAMP(Y0, Y4)
	RELUCLAMP(Y1, Y5)
	RELUCLAMP(Y2, Y6)
	RELUCLAMP(Y3, Y7)
	VMOVUPS	Y0, (DI)(AX*1)
	VMOVUPS	Y1, 32(DI)(AX*1)
	VMOVUPS	Y2, 64(DI)(AX*1)
	VMOVUPS	Y3, 96(DI)(AX*1)
	MOVQ	BX, AX
	JMP	epi32

epi8:
	LEAQ	32(AX), BX
	CMPQ	BX, CX
	JGT	epitail
	VMOVUPS	(SI)(AX*1), Y0
	RELUCLAMP(Y0, Y4)
	VMOVUPS	Y0, (DI)(AX*1)
	MOVQ	BX, AX
	JMP	epi8

epitail:
	MOVQ	CX, BX
	SUBQ	AX, BX
	JZ	epidone
	NEGQ	BX
	VMOVUPS	32(R10)(BX*1), Y15
	VMASKMOVPS	(SI)(AX*1), Y15, Y0
	RELUCLAMP(Y0, Y4)
	VMASKMOVPS	Y0, Y15, (DI)(AX*1)
	JMP	epidone

epibias:
	MOVQ	c+32(FP), BX
	SHLQ	$2, BX
	MOVQ	BX, R9
	ANDQ	$31, R9
	NEGQ	R9
	VMOVUPS	32(R10)(R9*1), Y15
	MOVQ	BX, R11
	ANDQ	$-32, R11

epipixel:
	CMPQ	AX, CX
	JGE	epidone
	XORQ	R8, R8
	LEAQ	(SI)(AX*1), R12
	LEAQ	(DI)(AX*1), R13

epiblock:
	CMPQ	R8, R11
	JGE	epiptail
	VMOVUPS	(R12)(R8*1), Y0
	VADDPS	(DX)(R8*1), Y0, Y0
	RELUCLAMP(Y0, Y4)
	VMOVUPS	Y0, (R13)(R8*1)
	ADDQ	$32, R8
	JMP	epiblock

epiptail:
	CMPQ	R8, BX
	JGE	epinext
	VMASKMOVPS	(R12)(R8*1), Y15, Y0
	VMASKMOVPS	(DX)(R8*1), Y15, Y1
	VADDPS	Y1, Y0, Y0
	RELUCLAMP(Y0, Y4)
	VMASKMOVPS	Y0, Y15, (R13)(R8*1)

epinext:
	ADDQ	BX, AX
	JMP	epipixel

epidone:
	VZEROUPPER
	RET

// The row-max kernels fold src into dst with the strict rule
// src > dst ? src : dst: VMAXPS with src first (ties and a NaN in src
// keep dst) and VPMAXSB on int8. Folding a lane twice leaves it as
// folding it once, so when n is not a multiple of the block width a
// last block ends at n and overlaps the one before.

// func maxRowAVX2(dst, src *float32, n int)
//
// n >= 4: 32- and 8-lane blocks, or two 4-lane blocks when n < 8.
TEXT ·maxRowAVX2(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	SHLQ	$2, CX
	XORQ	AX, AX
	CMPQ	CX, $32
	JLT	max4

max32:
	LEAQ	128(AX), BX
	CMPQ	BX, CX
	JGT	max8
	VMOVUPS	(SI)(AX*1), Y0
	VMOVUPS	32(SI)(AX*1), Y1
	VMOVUPS	64(SI)(AX*1), Y2
	VMOVUPS	96(SI)(AX*1), Y3
	VMAXPS	(DI)(AX*1), Y0, Y0
	VMAXPS	32(DI)(AX*1), Y1, Y1
	VMAXPS	64(DI)(AX*1), Y2, Y2
	VMAXPS	96(DI)(AX*1), Y3, Y3
	VMOVUPS	Y0, (DI)(AX*1)
	VMOVUPS	Y1, 32(DI)(AX*1)
	VMOVUPS	Y2, 64(DI)(AX*1)
	VMOVUPS	Y3, 96(DI)(AX*1)
	MOVQ	BX, AX
	JMP	max32

max8:
	LEAQ	32(AX), BX
	CMPQ	BX, CX
	JGT	maxtail
	VMOVUPS	(SI)(AX*1), Y0
	VMAXPS	(DI)(AX*1), Y0, Y0
	VMOVUPS	Y0, (DI)(AX*1)
	MOVQ	BX, AX
	JMP	max8

maxtail:
	CMPQ	AX, CX
	JGE	maxdone
	LEAQ	-32(CX), AX
	JMP	max8

max4:
	VMOVUPS	(SI), X0
	VMAXPS	(DI), X0, X0
	VMOVUPS	X0, (DI)
	LEAQ	-16(CX), AX
	VMOVUPS	(SI)(AX*1), X0
	VMAXPS	(DI)(AX*1), X0, X0
	VMOVUPS	X0, (DI)(AX*1)

maxdone:
	VZEROUPPER
	RET

// func qmaxRowAVX2(dst, src *int8, n int)
//
// n >= 16: 128- and 32-lane blocks, or two 16-lane blocks when n < 32.
TEXT ·qmaxRowAVX2(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
	CMPQ	CX, $32
	JLT	qmax16

qmax128:
	LEAQ	128(AX), BX
	CMPQ	BX, CX
	JGT	qmax32
	VMOVDQU	(SI)(AX*1), Y0
	VMOVDQU	32(SI)(AX*1), Y1
	VMOVDQU	64(SI)(AX*1), Y2
	VMOVDQU	96(SI)(AX*1), Y3
	VPMAXSB	(DI)(AX*1), Y0, Y0
	VPMAXSB	32(DI)(AX*1), Y1, Y1
	VPMAXSB	64(DI)(AX*1), Y2, Y2
	VPMAXSB	96(DI)(AX*1), Y3, Y3
	VMOVDQU	Y0, (DI)(AX*1)
	VMOVDQU	Y1, 32(DI)(AX*1)
	VMOVDQU	Y2, 64(DI)(AX*1)
	VMOVDQU	Y3, 96(DI)(AX*1)
	MOVQ	BX, AX
	JMP	qmax128

qmax32:
	LEAQ	32(AX), BX
	CMPQ	BX, CX
	JGT	qmaxtail
	VMOVDQU	(SI)(AX*1), Y0
	VPMAXSB	(DI)(AX*1), Y0, Y0
	VMOVDQU	Y0, (DI)(AX*1)
	MOVQ	BX, AX
	JMP	qmax32

qmaxtail:
	CMPQ	AX, CX
	JGE	qmaxdone
	LEAQ	-32(CX), AX
	JMP	qmax32

qmax16:
	VMOVDQU	(SI), X0
	VPMAXSB	(DI), X0, X0
	VMOVDQU	X0, (DI)
	LEAQ	-16(CX), AX
	VMOVDQU	(SI)(AX*1), X0
	VPMAXSB	(DI)(AX*1), X0, X0
	VMOVDQU	X0, (DI)(AX*1)

qmaxdone:
	VZEROUPPER
	RET

// The int8 boundary kernels share QROUND, which takes eight
// quantized-domain float lanes to int8 the way clampRoundQ does. Y13
// and Y14 hold the limits qlo and qhi as floats, Y11 and Y12 as int32,
// Y15 0.5 and Y8 the sign bit. VMAXPS with v first is v > qlo ? v : qlo,
// so NaN and every v <= qlo give qlo, the scalar !(v > qlo) rule; VMINPS
// then caps v at qhi. Adding 0.5 with v's sign and truncating
// (VCVTTPS2DQ) is RoundI32. The integer clamp is clampRoundQ's; after
// the float clamp to integral limits it cannot bind. The saturating
// packs leave the eight bytes in the low quadword of xv (t and xt are
// scratch).
#define QROUND(v, xv, t, xt) \
	VMAXPS	Y13, v, v; \
	VMINPS	Y14, v, v; \
	VANDPS	Y8, v, t; \
	VORPS	Y15, t, t; \
	VADDPS	t, v, v; \
	VCVTTPS2DQ	v, v; \
	VPMAXSD	Y11, v, v; \
	VPMINSD	Y12, v, v; \
	VEXTRACTI128	$1, v, xt; \
	VPACKSSDW	xt, xv, xv; \
	VPACKSSWB	xv, xv, xv

// QCONSTS loads QROUND's 0.5 into Y15 and sign bit into Y8, using R8.
#define QCONSTS \
	MOVL	$0x3f000000, R8; \
	VMOVD	R8, X15; \
	VPBROADCASTD	X15, Y15; \
	VPCMPEQD	Y8, Y8, Y8; \
	VPSLLD	$31, Y8, Y8

// func requantAVX2(acc, corr *int32, out *int8, n int, zo, msc float32, qlo, qhi int32)
//
// n >= 8 and -128 <= qlo <= qhi <= 127. Each 8-lane block computes
// zo + float32(acc-corr)*msc with VPSUBD (wrapping), VCVTDQ2PS, VMULPS
// and VADDPS, never a fused multiply-add, then QROUND. When n is not a
// multiple of 8 a last block ends at n and overlaps the one before; it
// rewrites those outputs from the same inputs.
TEXT ·requantAVX2(SB), NOSPLIT, $0-48
	MOVQ	acc+0(FP), SI
	MOVQ	corr+8(FP), DX
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VBROADCASTSS	zo+32(FP), Y10
	VBROADCASTSS	msc+36(FP), Y9
	MOVL	qlo+40(FP), R8
	VMOVD	R8, X11
	VPBROADCASTD	X11, Y11
	MOVL	qhi+44(FP), R8
	VMOVD	R8, X12
	VPBROADCASTD	X12, Y12
	VCVTDQ2PS	Y11, Y13
	VCVTDQ2PS	Y12, Y14
	QCONSTS
	XORQ	AX, AX

rq8:
	LEAQ	8(AX), BX
	CMPQ	BX, CX
	JGT	rqtail
	VMOVDQU	(SI)(AX*4), Y0
	VPSUBD	(DX)(AX*4), Y0, Y0
	VCVTDQ2PS	Y0, Y0
	VMULPS	Y9, Y0, Y0
	VADDPS	Y0, Y10, Y0
	QROUND(Y0, X0, Y1, X1)
	VMOVQ	X0, (DI)(AX*1)
	MOVQ	BX, AX
	JMP	rq8

rqtail:
	CMPQ	AX, CX
	JGE	rqdone
	LEAQ	-8(CX), AX
	JMP	rq8

rqdone:
	VZEROUPPER
	RET

// func quantizeAVX2(dst *int8, src *float32, n int, scale, zero float32)
//
// n >= 8. Each 8-lane block computes src/scale + zero with VDIVPS and
// VADDPS, QParams.Quantize's two roundings, then QROUND with the limits
// -128 and 127. The last block overlaps as in requantAVX2.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	scale+24(FP), Y9
	VBROADCASTSS	zero+28(FP), Y10
	MOVL	$-128, R8
	VMOVD	R8, X11
	VPBROADCASTD	X11, Y11
	MOVL	$127, R8
	VMOVD	R8, X12
	VPBROADCASTD	X12, Y12
	VCVTDQ2PS	Y11, Y13
	VCVTDQ2PS	Y12, Y14
	QCONSTS
	XORQ	AX, AX

qz8:
	LEAQ	8(AX), BX
	CMPQ	BX, CX
	JGT	qztail
	VMOVUPS	(SI)(AX*4), Y0
	VDIVPS	Y9, Y0, Y0
	VADDPS	Y10, Y0, Y0
	QROUND(Y0, X0, Y1, X1)
	VMOVQ	X0, (DI)(AX*1)
	MOVQ	BX, AX
	JMP	qz8

qztail:
	CMPQ	AX, CX
	JGE	qzdone
	LEAQ	-8(CX), AX
	JMP	qz8

qzdone:
	VZEROUPPER
	RET

// The float leg of the int8 backend (QEpilogue): loading an int8
// operand or int32 accumulators into float32 blocks. When n is not a
// multiple of 8 the last 8-lane block ends at n, overlapping the one
// before; dst is a separate buffer, so it rewrites those lanes from the
// same inputs.

// func dequantAVX2(dst *float32, src *int8, n int, scale float32, zero int32)
//
// n >= 8. Writes scale*float32(src[i]-zero) into dst[i]:
// QParams.Dequantize with VPMOVSXBD, VPSUBD (wrapping like the int32
// difference), VCVTDQ2PS and VMULPS.
TEXT ·dequantAVX2(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	scale+24(FP), Y9
	MOVL	zero+28(FP), R8
	VMOVD	R8, X10
	VPBROADCASTD	X10, Y10
	XORQ	AX, AX

dq8:
	LEAQ	8(AX), BX
	CMPQ	BX, CX
	JGT	dqtail
	VPMOVSXBD	(SI)(AX*1), Y0
	VPSUBD	Y10, Y0, Y0
	VCVTDQ2PS	Y0, Y0
	VMULPS	Y9, Y0, Y0
	VMOVUPS	Y0, (DI)(AX*4)
	MOVQ	BX, AX
	JMP	dq8

dqtail:
	CMPQ	AX, CX
	JGE	dqdone
	LEAQ	-8(CX), AX
	JMP	dq8

dqdone:
	VZEROUPPER
	RET

// func scaleAccAVX2(dst *float32, acc *int32, n int, m float32)
//
// n >= 8. Writes float32(acc[i])*m into dst[i] with VCVTDQ2PS and VMULPS.
TEXT ·scaleAccAVX2(SB), NOSPLIT, $0-28
	MOVQ	dst+0(FP), DI
	MOVQ	acc+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	m+24(FP), Y9
	XORQ	AX, AX

sa8:
	LEAQ	8(AX), BX
	CMPQ	BX, CX
	JGT	satail
	VCVTDQ2PS	(SI)(AX*4), Y0
	VMULPS	Y9, Y0, Y0
	VMOVUPS	Y0, (DI)(AX*4)
	MOVQ	BX, AX
	JMP	sa8

satail:
	CMPQ	AX, CX
	JGE	sadone
	LEAQ	-8(CX), AX
	JMP	sa8

sadone:
	VZEROUPPER
	RET

// qaddc127 holds eight float32 127s, the upper quantization limit
// qaddAVX2 reads from memory (its registers are all taken).
DATA qaddc127<>+0(SB)/4, $0x42fe0000
DATA qaddc127<>+4(SB)/4, $0x42fe0000
DATA qaddc127<>+8(SB)/4, $0x42fe0000
DATA qaddc127<>+12(SB)/4, $0x42fe0000
DATA qaddc127<>+16(SB)/4, $0x42fe0000
DATA qaddc127<>+20(SB)/4, $0x42fe0000
DATA qaddc127<>+24(SB)/4, $0x42fe0000
DATA qaddc127<>+28(SB)/4, $0x42fe0000
GLOBL qaddc127<>(SB), RODATA|NOPTR, $32

// func qaddAVX2(dst, a, b *int8, n int, sa float32, za int32, sb float32, zb int32, lo, hi float32, relu bool, so, zo float32)
//
// n is a positive multiple of 8 and lo <= hi (a caller with no clamp
// passes -Inf and +Inf). Writes QParams{so, zo}.Quantize of ReLU? →
// clamp of sa*float32(a[i]-za) + sb*float32(b[i]-zb) into dst[i]: the
// dequantize of dequantAVX2 per operand and VADDPS, RELUCLAMP's lane
// rules with Y7 as the ReLU mask, and quantizeAVX2's divide, add,
// limits and rounding (the integer clamp dropped: after the float
// limits it cannot bind, and the packs saturate). Registers: Y3/Y4 sa
// and za, Y5/Y6 sb and zb, Y12 +0, Y13/Y14 lo and hi, Y9/Y10 so and zo,
// Y11 -128.0, Y8 and Y15 QROUND's sign bit and 0.5.
TEXT ·qaddAVX2(SB), NOSPLIT, $0-68
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), DX
	MOVQ	n+24(FP), CX
	VBROADCASTSS	sa+32(FP), Y3
	MOVL	za+36(FP), R8
	VMOVD	R8, X4
	VPBROADCASTD	X4, Y4
	VBROADCASTSS	sb+40(FP), Y5
	MOVL	zb+44(FP), R8
	VMOVD	R8, X6
	VPBROADCASTD	X6, Y6
	VBROADCASTSS	lo+48(FP), Y13
	VBROADCASTSS	hi+52(FP), Y14
	VXORPS	Y12, Y12, Y12
	VXORPS	Y7, Y7, Y7
	MOVBLZX	relu+56(FP), AX
	TESTL	AX, AX
	JZ	qaddstart
	VPCMPEQD	Y7, Y7, Y7

qaddstart:
	VBROADCASTSS	so+60(FP), Y9
	VBROADCASTSS	zo+64(FP), Y10
	MOVL	$0xc3000000, R8
	VMOVD	R8, X11
	VPBROADCASTD	X11, Y11
	QCONSTS
	XORQ	AX, AX

qadd8:
	CMPQ	AX, CX
	JGE	qadddone
	VPMOVSXBD	(SI)(AX*1), Y0
	VPMOVSXBD	(DX)(AX*1), Y1
	VPSUBD	Y4, Y0, Y0
	VPSUBD	Y6, Y1, Y1
	VCVTDQ2PS	Y0, Y0
	VCVTDQ2PS	Y1, Y1
	VMULPS	Y3, Y0, Y0
	VMULPS	Y5, Y1, Y1
	VADDPS	Y1, Y0, Y0
	VMAXPS	Y12, Y0, Y2
	VBLENDVPS	Y7, Y2, Y0, Y0
	VMAXPS	Y0, Y13, Y0
	VMINPS	Y0, Y14, Y0
	VDIVPS	Y9, Y0, Y0
	VADDPS	Y10, Y0, Y0
	VMAXPS	Y11, Y0, Y0
	VMINPS	qaddc127<>(SB), Y0, Y0
	VANDPS	Y8, Y0, Y2
	VORPS	Y15, Y2, Y2
	VADDPS	Y2, Y0, Y0
	VCVTTPS2DQ	Y0, Y0
	VEXTRACTI128	$1, Y0, X1
	VPACKSSDW	X1, X0, X0
	VPACKSSWB	X0, X0, X0
	VMOVQ	X0, (DI)(AX*1)
	ADDQ	$8, AX
	JMP	qadd8

qadddone:
	VZEROUPPER
	RET
