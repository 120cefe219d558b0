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
