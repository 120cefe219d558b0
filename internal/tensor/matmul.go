package tensor

import (
	"fmt"
	"sync"

	"ranger/internal/parallel"
)

// Kernel blocking parameters. The B-panel block (blockK x blockN float32s)
// is sized to sit in L2 while it is reused across every output row of a
// worker's shard.
const (
	blockK = 128
	blockN = 512
)

// parallelFLOPCutoff is the approximate multiply-add count below which the
// kernels stay on the calling goroutine; tiny matmuls are dominated by
// goroutine hand-off, not arithmetic.
const parallelFLOPCutoff = 1 << 16

// kernelWorkers returns the worker count for a kernel of the given
// multiply-add volume: 1 below the cutoff, the process default above it.
func kernelWorkers(flops int) int {
	if flops < parallelFLOPCutoff {
		return 1
	}
	return parallel.Workers()
}

// Four-tap micro-kernels. Every float32 GEMM here computes an output row
// as a sequence of axpy updates ob += a[p]*B[p,:] over the nonzero taps
// p, ascending. gemvTaps runs that sequence four taps at a time: axpy4
// loads each output once, adds the four products one after another and
// stores it once, so output traffic and per-tap loop overhead drop to a
// quarter while every element sees the same float32 operations in the
// same order. Zero taps are dropped before grouping, never added as 0*b:
// 0*Inf is NaN and -0+0 is +0, so adding them would change results. One
// difference remains: where an add meets two NaNs, which NaN's payload
// survives depends on register allocation, so it may differ from the
// single-tap loop (the result is NaN either way).

// axpy4 adds a0*b0, a1*b1, a2*b2 and a3*b3 into ob, in that order, each
// product and each add rounded to float32 exactly as four single-tap
// passes round them.
func axpy4(ob []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(ob)], b1[:len(ob)], b2[:len(ob)], b3[:len(ob)]
	for j, v := range ob {
		v = a0*b0[j] + v
		v = a1*b1[j] + v
		v = a2*b2[j] + v
		v = a3*b3[j] + v
		ob[j] = v
	}
}

// gemvTaps accumulates a[p]*b[p*ldb : p*ldb+len(ob)] into ob for every
// nonzero a[p], in ascending p, four taps per pass over ob.
func gemvTaps(ob, a, b []float32, ldb int) {
	w := len(ob)
	var off [4]int
	var av [4]float32
	nz := 0
	for p, v := range a {
		if v == 0 {
			continue
		}
		off[nz&3], av[nz&3] = p*ldb, v
		nz++
		if nz&3 == 0 {
			axpy4(ob, av[0], av[1], av[2], av[3],
				b[off[0]:off[0]+w], b[off[1]:off[1]+w], b[off[2]:off[2]+w], b[off[3]:off[3]+w])
		}
	}
	axpyTail(ob, b, &av, &off, nz)
}

// axpyTail applies the last nz%4 taps a gather left in its four-tap ring,
// one at a time in ascending order.
func axpyTail(ob, b []float32, av *[4]float32, off *[4]int, nz int) {
	w := len(ob)
	for t := nz &^ 3; t < nz; t++ {
		a0, brow := av[t&3], b[off[t&3]:off[t&3]+w]
		for j, bv := range brow {
			ob[j] += a0 * bv
		}
	}
}

// matmulRows is the row-sharded matmul kernel body for output rows
// [lo, hi): (m,k)x(k,n) operand slices ad/bd into od.
func matmulRows(ad, bd, od []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		clear(orow)
		if n <= blockN {
			// Single j-block: the whole reduction is one tap sequence.
			gemvTaps(orow, arow, bd, n)
			continue
		}
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			for j0 := 0; j0 < n; j0 += blockN {
				j1 := min(j0+blockN, n)
				gemvTaps(orow[j0:j1], arow[p0:p1], bd[p0*n+j0:], n)
			}
		}
	}
}

// PackMinRows is the row count below which the panel-packed kernel
// (MatMulPackInto) is not worth its packing pass and delegates to the
// batch-1 kernels. Lane-batched execution engages at 2 lanes for dense
// layers because even B=2 halves the weight streaming, but a packed
// panel only pays for itself once it is reused across a few rows.
const PackMinRows = 4

// PackPanelLen is the float32 (or int8) capacity of one packed B-panel
// block — the buffer callers hand MatMulPackInto to keep its packing
// allocation-free on the campaign hot path.
const PackPanelLen = blockK * blockN

// panelPool recycles the per-worker panel buffers of the parallel
// packed-kernel paths (the single-worker path uses the caller's buffer).
var panelPool = sync.Pool{New: func() any { return make([]float32, PackPanelLen) }}

// matmulPanels is the lane-batched kernel body for output rows [lo, hi)
// and columns [jw0, jw1): each B-panel block is copied once into the
// contiguous pack buffer and then reused across every output row, so B
// batched lanes amortize the weight streaming that the row kernel
// repeats per row. Per output element the reduction still runs
// p-ascending across ascending p-blocks — exactly the sequence
// matmulRows uses — so results are bit-identical to the batch-1 kernels
// at every blocking and worker count.
func matmulPanels(ad, bd, od []float32, k, n, lo, hi, jw0, jw1 int, pack []float32) {
	for j0 := jw0; j0 < jw1; j0 += blockN {
		j1 := min(j0+blockN, jw1)
		w := j1 - j0
		for i := lo; i < hi; i++ {
			clear(od[i*n+j0 : i*n+j1])
		}
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			for p := p0; p < p1; p++ {
				copy(pack[(p-p0)*w:(p-p0+1)*w], bd[p*n+j0:p*n+j1])
			}
			for i := lo; i < hi; i++ {
				gemvTaps(od[i*n+j0:i*n+j1], ad[i*k+p0:i*k+p1], pack, w)
			}
		}
	}
}

// MatMulPackInto computes a·b into dst exactly like MatMulInto, but
// through the panel-packed lane-batched kernel: B-panel blocks are
// copied once into a contiguous buffer and reused across all output
// rows. pack, when non-nil, provides the panel storage (PackPanelLen
// elements; see PlanState scratch usage) so steady-state calls allocate
// nothing; a nil or short pack allocates. Outputs are bit-identical to
// MatMulInto — per-element accumulation order is unchanged — so callers
// switch on row count alone: below PackMinRows rows the packing pass
// cannot amortize and the call delegates to MatMulInto.
func MatMulPackInto(dst, a, b *Tensor, pack []float32) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmul ranks %d x %d", ErrShape, a.Rank(), b.Rank())
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul %v x %v", ErrShape, a.shape, b.shape)
	}
	if m < PackMinRows {
		return MatMulInto(dst, a, b)
	}
	out, err := prepDst(dst, m, n)
	if err != nil {
		return nil, err
	}
	ad, bd, od := a.data, b.data, out.data
	workers := kernelWorkers(m * k * n)
	if workers <= 1 {
		if cap(pack) < PackPanelLen {
			pack = make([]float32, PackPanelLen)
		}
		matmulPanels(ad, bd, od, k, n, 0, m, 0, n, pack[:PackPanelLen])
		return out, nil
	}
	if nb := (n + blockN - 1) / blockN; nb >= workers {
		// Wide output: shard whole column blocks so no two workers pack
		// the same panel.
		parallel.Shard(workers, nb, func(b0, b1 int) {
			wp := panelPool.Get().([]float32)
			matmulPanels(ad, bd, od, k, n, 0, m, b0*blockN, min(b1*blockN, n), wp)
			panelPool.Put(wp)
		})
		return out, nil
	}
	// Narrow output: shard rows. Workers re-pack the same panels, but the
	// packing cost (k·n copies) is negligible against each worker's
	// rows·k·n multiply-adds.
	parallel.Shard(workers, m, func(lo, hi int) {
		wp := panelPool.Get().([]float32)
		matmulPanels(ad, bd, od, k, n, lo, hi, 0, n, wp)
		panelPool.Put(wp)
	})
	return out, nil
}

// All three matmul kernels shard output rows across workers and walk the
// reduction dimension in ascending order within each row, so every output
// element accumulates its products in exactly the sequence the sequential
// kernel used. Results are therefore bit-identical at every worker count
// and block size.

// MatMul returns the matrix product of two rank-2 tensors: (m,k)x(k,n)->(m,n).
func MatMul(a, b *Tensor) (*Tensor, error) {
	return MatMulInto(nil, a, b)
}

// MatMulInto computes a·b into dst, which must be (m,n) (its contents are
// overwritten); dst == nil allocates. It returns dst.
func MatMulInto(dst, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmul ranks %d x %d", ErrShape, a.Rank(), b.Rank())
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul %v x %v", ErrShape, a.shape, b.shape)
	}
	out, err := prepDst(dst, m, n)
	if err != nil {
		return nil, err
	}
	ad, bd, od := a.data, b.data, out.data
	workers := kernelWorkers(m * k * n)
	if m >= workers || m >= n {
		// Row sharding: each worker owns contiguous output rows and keeps
		// its current row resident while streaming B in p-major order,
		// blocking j so wide B rows stay L1-resident across the p-block.
		// The single-worker path calls the kernel directly — routing it
		// through Shard would heap-allocate the closure per call, which
		// the zero-alloc campaign trial loop cannot afford.
		if workers <= 1 {
			matmulRows(ad, bd, od, k, n, 0, m)
		} else {
			parallel.Shard(workers, m, func(lo, hi int) {
				matmulRows(ad, bd, od, k, n, lo, hi)
			})
		}
		return out, nil
	}
	// Few tall rows (batch-1 dense layers): shard output columns instead,
	// each worker streaming its B column stripe. Per-element accumulation
	// is p-ascending in both paths, so results are bitwise identical.
	parallel.Shard(workers, n, func(j0, j1 int) {
		for i := 0; i < m; i++ {
			ob := od[i*n+j0 : i*n+j1]
			clear(ob)
			gemvTaps(ob, ad[i*k:(i+1)*k], bd[j0:], n)
		}
	})
	return out, nil
}

// MatMulTransA returns aᵀ·b for a (k,m) and b (k,n), yielding (m,n).
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	return MatMulTransAInto(nil, a, b)
}

// MatMulTransAInto computes aᵀ·b into dst ((m,n), overwritten; nil
// allocates) and returns dst.
func MatMulTransAInto(dst, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.shape[0] != b.shape[0] {
		return nil, fmt.Errorf("%w: matmulTransA %v x %v", ErrShape, a.shape, b.shape)
	}
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out, err := prepDst(dst, m, n)
	if err != nil {
		return nil, err
	}
	ad, bd, od := a.data, b.data, out.data
	// Column sharding: every worker keeps the sequential kernel's p-major
	// streaming over a (row-major, zero-skipping) and owns a disjoint
	// column stripe of the output; a is re-streamed per worker, which is
	// cheap next to the j-work it amortizes.
	parallel.Shard(kernelWorkers(m*k*n), n, func(j0, j1 int) {
		for i := 0; i < m; i++ {
			clear(od[i*n+j0 : i*n+j1])
		}
		for p := 0; p < k; p++ {
			arow := ad[p*m : (p+1)*m]
			brow := bd[p*n+j0 : p*n+j1]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := od[i*n+j0 : i*n+j1]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out, nil
}

// MatMulTransB returns a·bᵀ for a (m,k) and b (n,k), yielding (m,n).
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	return MatMulTransBInto(nil, a, b)
}

// MatMulTransBInto computes a·bᵀ into dst ((m,n), overwritten; nil
// allocates) and returns dst.
func MatMulTransBInto(dst, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.shape[1] != b.shape[1] {
		return nil, fmt.Errorf("%w: matmulTransB %v x %v", ErrShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out, err := prepDst(dst, m, n)
	if err != nil {
		return nil, err
	}
	ad, bd, od := a.data, b.data, out.data
	// Row sharding with the sequential kernel's loops: each output element
	// is one contiguous dot product, so there is nothing for blocking to
	// keep resident — workers just own disjoint row ranges.
	parallel.Shard(kernelWorkers(m*k*n), m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			orow := od[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
	})
	return out, nil
}

// prepDst validates or allocates an (m,n) kernel destination.
func prepDst(dst *Tensor, m, n int) (*Tensor, error) {
	if dst == nil {
		// New zero-fills; the kernels clear their own shards, which is
		// redundant here but keeps the dst-reuse path identical.
		return New(m, n), nil
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return nil, fmt.Errorf("%w: matmul dst %v, want [%d %d]", ErrShape, dst.shape, m, n)
	}
	return dst, nil
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("%w: transpose rank %d", ErrShape, a.Rank())
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}
