package tensor

// ForEachKernelPath runs f once on the portable Go kernels (path "go")
// and, when the CPU has AVX2, once more on the AVX2 kernels (path
// "avx2"), then restores the selection. It lets the tests of packages
// built on these kernels compare the two paths; it must not run while
// other goroutines use the kernels.
func ForEachKernelPath(f func(path string)) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	host := useAVX2
	useAVX2 = false
	f("go")
	if host {
		useAVX2 = true
		f("avx2")
	}
}
