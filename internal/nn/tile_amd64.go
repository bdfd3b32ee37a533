package nn

// denseTile computes out neurons of one Dense layer over a 4-row tile
// held feature-major: x[i*4+r] is input i of row r and y[o*4+r] is
// output o of row r. Each lane repeats forwardBatchInto's arithmetic —
// start from the bias, then a multiply and an add per input in ascending
// order, no FMA — and ReLU keeps s unless s < 0, so every output is the
// scalar kernel's bit for bit, -0 and NaN included. ForwardBatch runs it
// for inference and for the training step's forward pass. Implemented in
// tile_amd64.s.
//
//go:noescape
func denseTile(w, b, x, y *float64, in, out int, relu bool)

// trainBackward and adamStep are the training step's kernels, in
// train_amd64.s: one layer's backward for one sample, and Adam over one
// parameter array. The step's forward pass is ForwardBatch's, on
// denseTile.
//
//go:noescape
func trainBackward(w, gw, gb, x, dy, dx *float64, live *int, in, out int)

//go:noescape
func adamStep(w, grad, m, v, mask *float64, n int, c *adamCoef)

// cpuid and xgetbv are the bare instructions, in tile_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
