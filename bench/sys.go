package main

import (
	"syscall"
	"time"
)

// probeSink keeps the host probe's result live so the loops are not
// optimized away.
var probeSink uint64

// hostProbeMS times fixed pure-Go loops that touch no repo code: an
// integer hash chain, then dependent random reads over a 32 MB table,
// so both a slower core and a neighbour thrashing the shared cache show.
// Runs printed with very different probe times ran on a host of
// different speed, and their pairing is suspect.
func hostProbeMS() float64 {
	table := make([]uint32, 8<<20)
	for i := range table {
		table[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(table) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		table[i], table[j] = table[j], table[i]
	}
	start := time.Now()
	var acc uint64
	for range 10_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x >> 32
	}
	k := uint32(0)
	for range 1_000_000 {
		k = table[k]
	}
	probeSink = acc + uint64(k)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// Host speed. On a shared host the speed of the repository's kernels
// swings with what the neighbours run on the same physical core: a
// back-to-back loop of refKernel read 250 us for seconds at a time and
// 430 us at others, switching within a second, and serve throughput moved
// by as much between runs. The timed phases therefore run refKernel
// around every timed call and scale each call's time to a host on which
// refKernel takes refNominal, so the end-to-end times measure the
// repository's code and not the neighbours. hostProbeMS, a latency-bound
// loop, barely moves with this kind of contention; refKernel is
// throughput-bound like the kernels.
const (
	refRows, refCols = 256, 512
	// refNominal is about what refKernel takes on the 2-vCPU VM the
	// benchmark was built on when the neighbours are quiet.
	refNominal = 250e-6
)

// refKernel is a fixed amount of the work the repository's kernels do:
// rows of float32 multiply-adds and of int8 products summed into int32,
// the inner loops of its matmul and convolution kernels, in plain Go that
// uses no repository code, so no change to the repository changes its
// cost. Its operands fit in the L2 cache.
type refKernel struct {
	a, b, out []float32
	qa, qb    []int8
	acc       []int32
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a: make([]float32, refRows), b: make([]float32, refRows*refCols), out: make([]float32, refCols),
		qa: make([]int8, refRows), qb: make([]int8, refRows*refCols), acc: make([]int32, refCols),
	}
	for i := range k.a {
		k.a[i], k.qa[i] = float32(i%7)*0.25, int8(i%9-4)
	}
	for i := range k.b {
		k.b[i], k.qb[i] = float32(i%13)*0.125, int8(i%11-5)
	}
	return k
}

// seconds runs the kernel once and returns how long it took.
func (k *refKernel) seconds() float64 {
	start := time.Now()
	clear(k.out)
	for p, av := range k.a {
		brow := k.b[p*refCols : (p+1)*refCols]
		for j := range k.out {
			k.out[j] += av * brow[j]
		}
	}
	clear(k.acc)
	for p, a := range k.qa {
		av := int32(a)
		brow := k.qb[p*refCols : (p+1)*refCols]
		for j, wv := range brow {
			k.acc[j] += av * int32(wv)
		}
	}
	return time.Since(start).Seconds()
}

// atRefSpeed scales seconds measured while refKernel took ref1 before
// and ref2 after to a host on which it takes refNominal.
func atRefSpeed(seconds, ref1, ref2 float64) float64 {
	return seconds * refNominal / ((ref1 + ref2) / 2)
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
