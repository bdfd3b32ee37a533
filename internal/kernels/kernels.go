// Package kernels provides the synthetic GPU workload suite standing in
// for the Rodinia / Parboil / PolyBench CUDA benchmarks the paper runs
// under GPGPU-Sim. Each kernel is a deterministic trace program named
// after the benchmark whose execution behaviour it models: compute-bound,
// memory-streaming, cache-resident, irregular, branch-heavy, or
// phase-alternating. Controllers only observe performance counters, so
// what the suite must supply is a diverse population of compute/memory
// intensity mixes and temporal phase behaviour — which these generators
// cover while also carrying ground-truth labels real benchmarks lack.
package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"ssmdvfs/internal/isa"
)

// Behaviour is the coarse archetype of a kernel, used for analysis and in
// tests that check the suite covers the behaviour space.
type Behaviour string

const (
	ComputeBound  Behaviour = "compute"
	MemoryBound   Behaviour = "memory"
	CacheFriendly Behaviour = "cache"
	Irregular     Behaviour = "irregular"
	BranchHeavy   Behaviour = "branch"
	PhaseMixed    Behaviour = "phases"
	// DNNLayer models DNN inference passes whose layers walk the kernel
	// through distinct phases — convolution (dense FALU), pooling
	// (cache-resident reduction), fully-connected (weight streaming), and
	// softmax (SFU) — the layer-by-layer workload shifts the online
	// adaptation loop has to track.
	DNNLayer Behaviour = "dnn"
)

// Spec describes one kernel in the suite.
type Spec struct {
	// Name matches the benchmark the kernel models (e.g. "rodinia.hotspot").
	Name string
	// Behaviour is the kernel's dominant archetype.
	Behaviour Behaviour
	// Training marks kernels whose data may be used to train SSMDVFS; the
	// evaluation set keeps >50% of programs unseen, as in the paper.
	Training bool
	// BaseIterations is calibrated so the kernel runs roughly 300 µs on
	// the full Titan X configuration at the default operating point.
	BaseIterations int
	// Warps is the per-cluster warp count.
	Warps int

	build func(iters int, rng *rand.Rand) []isa.Program
	seed  int64
}

// Build instantiates the kernel with its iteration count scaled by the
// given factor (1.0 reproduces the calibrated ~300 µs program).
func (s Spec) Build(scale float64) isa.Kernel {
	iters := int(float64(s.BaseIterations) * scale)
	if iters < 1 {
		iters = 1
	}
	rng := rand.New(rand.NewSource(s.seed))
	return isa.Kernel{
		Name:            s.Name,
		WarpsPerCluster: s.Warps,
		Programs:        s.build(iters, rng),
	}
}

// --- body-construction helpers -------------------------------------------

// regAlloc hands out registers 1..MaxRegs-1 (register 0 is the zero reg).
type regAlloc struct{ next isa.Reg }

func (a *regAlloc) get() isa.Reg {
	a.next++
	if a.next >= isa.MaxRegs {
		a.next = 1
	}
	if a.next == 0 {
		a.next = 1
	}
	return a.next
}

// computeChain emits n ops of class op spread across k accumulator
// registers (instruction-level parallelism k), each consuming src.
func computeChain(body []isa.Instruction, op isa.Op, n, k int, src isa.Reg, ra *regAlloc) []isa.Instruction {
	if k < 1 {
		k = 1
	}
	accs := make([]isa.Reg, k)
	for i := range accs {
		accs[i] = ra.get()
	}
	for i := 0; i < n; i++ {
		acc := accs[i%k]
		body = append(body, isa.Instruction{Op: op, Dst: acc, SrcA: acc, SrcB: src})
	}
	return body
}

// load emits a global load into dst with the given spec.
func load(dst isa.Reg, mem isa.MemSpec) isa.Instruction {
	return isa.Instruction{Op: isa.OpLoadGlobal, Dst: dst, Mem: mem}
}

// store emits a global store of src with the given spec.
func store(src isa.Reg, mem isa.MemSpec) isa.Instruction {
	return isa.Instruction{Op: isa.OpStoreGlobal, SrcA: src, Mem: mem}
}

const (
	kib = 1024
	mib = 1024 * 1024
)

// streamSpec builds a memory spec for per-warp streaming over a large
// footprint (DRAM bandwidth bound).
func streamSpec(base uint64, footprint uint64, lines int) isa.MemSpec {
	return isa.MemSpec{
		Base:            base,
		FootprintBytes:  footprint,
		StrideBytes:     256,
		WarpStrideBytes: footprint / 512,
		CoalescedLines:  lines,
		Pattern:         isa.PatternSequential,
	}
}

// residentSpec builds a memory spec whose working set fits in L1.
func residentSpec(base uint64, footprint uint64) isa.MemSpec {
	return isa.MemSpec{
		Base:            base,
		FootprintBytes:  footprint,
		StrideBytes:     64,
		WarpStrideBytes: 0,
		CoalescedLines:  1,
		Pattern:         isa.PatternSequential,
	}
}

// randomSpec builds an irregular, scattered access spec.
func randomSpec(base uint64, footprint uint64, lines int) isa.MemSpec {
	return isa.MemSpec{
		Base:           base,
		FootprintBytes: footprint,
		CoalescedLines: lines,
		Pattern:        isa.PatternRandom,
	}
}

// uniformPrograms returns nProgs copies of body variations produced by
// gen, one per program slot (warps share them round-robin).
func uniformPrograms(nProgs, iters int, gen func(slot int) []isa.Instruction) []isa.Program {
	ps := make([]isa.Program, nProgs)
	for i := range ps {
		ps[i] = isa.Program{Body: gen(i), Iterations: iters}
	}
	return ps
}

// --- archetype builders ---------------------------------------------------

// computeKernel: dense FALU with high ILP and an L1-resident feed — SGEMM,
// N-body, Mandelbrot class. Scales almost linearly with core frequency.
func computeKernel(faluPerLoad, ilp int, sfuEvery int) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			in := ra.get()
			body = append(body, load(in, residentSpec(0x1000_0000, 8*kib)))
			n := faluPerLoad + rng.Intn(faluPerLoad/4+1)
			body = computeChain(body, isa.OpFAlu, n, ilp, in, &ra)
			if sfuEvery > 0 {
				body = computeChain(body, isa.OpSFU, n/sfuEvery+1, 1, in, &ra)
			}
			body = computeChain(body, isa.OpIAlu, 2, 2, 0, &ra)
			return body
		})
	}
}

// streamKernel: load-compute-store over a DRAM-sized footprint — STREAM,
// SAXPY class. Mostly insensitive to core frequency.
func streamKernel(faluPerElem, lines int, withStore bool) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			a := ra.get()
			b := ra.get()
			base := uint64(0x2000_0000 + slot*0x400_0000)
			body = append(body,
				load(a, streamSpec(base, 64*mib, lines)),
				load(b, streamSpec(base+0x800_0000, 64*mib, lines)),
			)
			body = computeChain(body, isa.OpFAlu, faluPerElem, 2, a, &ra)
			if withStore {
				body = append(body, store(b, streamSpec(base+0x1000_0000, 64*mib, lines)))
			}
			body = append(body, isa.Instruction{Op: isa.OpIAlu, Dst: ra.get(), SrcA: a})
			return body
		})
	}
}

// cacheKernel: stencil-style reuse with an L1/L2-resident working set —
// hotspot, stencil2d class. Moderately frequency sensitive.
func cacheKernel(faluPerLoad int, footprint uint64) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			for i := 0; i < 3; i++ {
				r := ra.get()
				body = append(body, load(r, residentSpec(uint64(0x3000_0000+slot*0x10_0000), footprint)))
				body = computeChain(body, isa.OpFAlu, faluPerLoad, 2, r, &ra)
			}
			body = append(body, store(1, residentSpec(uint64(0x3800_0000+slot*0x10_0000), footprint)))
			return body
		})
	}
}

// irregularKernel: data-dependent scattered access — SpMV, BFS class.
// Latency bound; very insensitive to core frequency.
func irregularKernel(lines, ialuPerLoad int, withBranch bool) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			idx := ra.get()
			val := ra.get()
			base := uint64(0x4000_0000 + slot*0x1000_0000)
			body = append(body, load(idx, randomSpec(base, 256*mib, lines)))
			body = append(body, load(val, randomSpec(base+0x4000_0000, 256*mib, lines)))
			body = computeChain(body, isa.OpIAlu, ialuPerLoad, 2, idx, &ra)
			body = computeChain(body, isa.OpFAlu, 2, 1, val, &ra)
			if withBranch {
				body = append(body, isa.Instruction{Op: isa.OpBranch, SrcA: idx})
			}
			return body
		})
	}
}

// branchKernel: short blocks separated by divergent branches — pathfinder,
// particle-filter class.
func branchKernel(blockLen int) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			r := ra.get()
			body = append(body, load(r, residentSpec(0x5000_0000, 16*kib)))
			for b := 0; b < 3; b++ {
				body = computeChain(body, isa.OpIAlu, blockLen, 2, r, &ra)
				body = append(body, isa.Instruction{Op: isa.OpBranch, SrcA: r})
			}
			return body
		})
	}
}

// phaseKernel: alternates a compute-bound phase and a memory-bound phase
// within each program (kmeans, backprop, srad class). The per-iteration
// body contains both phases back to back, long enough that each spans
// multiple 10 µs epochs.
func phaseKernel(computeOps, memLoads, lines int) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			r := ra.get()
			body = append(body, load(r, residentSpec(0x6000_0000, 8*kib)))
			body = computeChain(body, isa.OpFAlu, computeOps, 4, r, &ra)
			base := uint64(0x7000_0000 + slot*0x800_0000)
			for m := 0; m < memLoads; m++ {
				mr := ra.get()
				body = append(body, load(mr, streamSpec(base+uint64(m)*0x100_0000, 32*mib, lines)))
				body = computeChain(body, isa.OpFAlu, 2, 1, mr, &ra)
			}
			body = append(body, store(r, streamSpec(base+0x4000_0000, 32*mib, lines)))
			return body
		})
	}
}

// dnnLayerKernel: one DNN inference pass per iteration, layer by layer —
// convolution (L1-resident activations under a dense multiply-accumulate
// chain), pooling (cache-blocked window reductions), fully-connected
// (streaming the weight matrix from DRAM), and softmax (SFU
// exponentials plus a normalization pass). Each layer is long enough to
// span multiple 10 µs epochs, so the counters seen by the controller
// shift phase at every layer boundary (AlexNet/ResNet inference class).
func dnnLayerKernel(convOps, poolLoads, fcLoads, lines int) func(int, *rand.Rand) []isa.Program {
	return func(iters int, rng *rand.Rand) []isa.Program {
		return uniformPrograms(4, iters, func(slot int) []isa.Instruction {
			var ra regAlloc
			var body []isa.Instruction
			// Convolution.
			act := ra.get()
			body = append(body, load(act, residentSpec(0x8000_0000, 8*kib)))
			body = computeChain(body, isa.OpFAlu, convOps, 4, act, &ra)
			// Pooling.
			for p := 0; p < poolLoads; p++ {
				r := ra.get()
				body = append(body, load(r, residentSpec(uint64(0x8800_0000+slot*0x10_0000), 12*kib)))
				body = computeChain(body, isa.OpIAlu, 6, 2, r, &ra)
			}
			// Fully connected: the weight matrix never fits in cache.
			base := uint64(0x9000_0000 + slot*0x800_0000)
			for m := 0; m < fcLoads; m++ {
				w := ra.get()
				body = append(body, load(w, streamSpec(base+uint64(m)*0x100_0000, 32*mib, lines)))
				body = computeChain(body, isa.OpFAlu, 2, 2, w, &ra)
			}
			// The softmax layer: exponentials on the SFU, then the normalising sums.
			body = computeChain(body, isa.OpSFU, convOps/8+4, 1, act, &ra)
			body = computeChain(body, isa.OpFAlu, 8, 2, act, &ra)
			body = append(body, store(act, streamSpec(base+0x4000_0000, 32*mib, lines)))
			return body
		})
	}
}

// --- the suite -------------------------------------------------------------

// Suite returns the full kernel suite, sorted by name. The split marks 13
// of the 24 kernels as training; evaluation in the experiments package
// uses a mix in which more than half the programs are unseen, as in the
// paper.
func Suite() []Spec {
	specs := []Spec{
		// Compute-bound.
		{Name: "polybench.gemm", Behaviour: ComputeBound, Training: true, Warps: 16, BaseIterations: 1400, seed: 101, build: computeKernel(24, 4, 0)},
		{Name: "polybench.2mm", Behaviour: ComputeBound, Training: true, Warps: 16, BaseIterations: 1350, seed: 102, build: computeKernel(20, 4, 0)},
		{Name: "parboil.sgemm", Behaviour: ComputeBound, Training: false, Warps: 16, BaseIterations: 1400, seed: 103, build: computeKernel(28, 4, 0)},
		{Name: "rodinia.nn", Behaviour: ComputeBound, Training: false, Warps: 12, BaseIterations: 1250, seed: 104, build: computeKernel(16, 2, 6)},
		{Name: "parboil.cutcp", Behaviour: ComputeBound, Training: true, Warps: 16, BaseIterations: 1100, seed: 105, build: computeKernel(18, 3, 4)},
		{Name: "rodinia.lavamd", Behaviour: ComputeBound, Training: false, Warps: 16, BaseIterations: 1000, seed: 106, build: computeKernel(22, 3, 8)},

		// Memory-streaming.
		{Name: "polybench.gesummv", Behaviour: MemoryBound, Training: true, Warps: 16, BaseIterations: 360, seed: 201, build: streamKernel(4, 4, false)},
		{Name: "parboil.stencil", Behaviour: MemoryBound, Training: true, Warps: 16, BaseIterations: 325, seed: 202, build: streamKernel(6, 4, true)},
		{Name: "rodinia.streamcluster", Behaviour: MemoryBound, Training: false, Warps: 16, BaseIterations: 345, seed: 203, build: streamKernel(3, 8, false)},
		{Name: "polybench.atax", Behaviour: MemoryBound, Training: true, Warps: 12, BaseIterations: 375, seed: 204, build: streamKernel(2, 4, true)},
		{Name: "rodinia.cfd", Behaviour: MemoryBound, Training: false, Warps: 16, BaseIterations: 310, seed: 205, build: streamKernel(8, 8, true)},

		// Cache-resident.
		{Name: "rodinia.hotspot", Behaviour: CacheFriendly, Training: true, Warps: 16, BaseIterations: 1280, seed: 301, build: cacheKernel(10, 12*kib)},
		{Name: "polybench.jacobi2d", Behaviour: CacheFriendly, Training: true, Warps: 16, BaseIterations: 1200, seed: 302, build: cacheKernel(8, 10*kib)},
		{Name: "rodinia.lud", Behaviour: CacheFriendly, Training: false, Warps: 12, BaseIterations: 1120, seed: 303, build: cacheKernel(12, 14*kib)},
		{Name: "parboil.sad", Behaviour: CacheFriendly, Training: false, Warps: 16, BaseIterations: 1150, seed: 304, build: cacheKernel(6, 8*kib)},

		// Irregular.
		{Name: "parboil.spmv", Behaviour: Irregular, Training: true, Warps: 16, BaseIterations: 122, seed: 401, build: irregularKernel(16, 4, false)},
		{Name: "rodinia.bfs", Behaviour: Irregular, Training: true, Warps: 16, BaseIterations: 110, seed: 402, build: irregularKernel(24, 3, true)},
		{Name: "rodinia.b+tree", Behaviour: Irregular, Training: false, Warps: 12, BaseIterations: 120, seed: 403, build: irregularKernel(20, 6, true)},
		{Name: "parboil.histo", Behaviour: Irregular, Training: false, Warps: 16, BaseIterations: 125, seed: 404, build: irregularKernel(12, 8, false)},

		// Branch-heavy.
		{Name: "rodinia.pathfinder", Behaviour: BranchHeavy, Training: true, Warps: 16, BaseIterations: 1560, seed: 501, build: branchKernel(8)},
		{Name: "rodinia.particlefilter", Behaviour: BranchHeavy, Training: false, Warps: 12, BaseIterations: 1470, seed: 502, build: branchKernel(6)},

		// Phase-alternating.
		{Name: "rodinia.kmeans", Behaviour: PhaseMixed, Training: true, Warps: 16, BaseIterations: 4, seed: 601, build: phaseKernel(4200, 55, 4)},
		{Name: "rodinia.backprop", Behaviour: PhaseMixed, Training: true, Warps: 16, BaseIterations: 4, seed: 602, build: phaseKernel(3000, 70, 4)},
		{Name: "rodinia.srad", Behaviour: PhaseMixed, Training: false, Warps: 16, BaseIterations: 4, seed: 603, build: phaseKernel(5200, 45, 8)},

		// DNN inference, layer-phase-shifting. All held out: these are the
		// drift workloads the online adaptation loop is evaluated on, so
		// the offline model must never have seen them.
		{Name: "tango.alexnet", Behaviour: DNNLayer, Training: false, Warps: 16, BaseIterations: 4, seed: 701, build: dnnLayerKernel(3600, 6, 48, 4)},
		{Name: "tango.resnet", Behaviour: DNNLayer, Training: false, Warps: 16, BaseIterations: 4, seed: 702, build: dnnLayerKernel(4800, 8, 36, 4)},
		{Name: "tango.squeezenet", Behaviour: DNNLayer, Training: false, Warps: 12, BaseIterations: 4, seed: 703, build: dnnLayerKernel(2800, 4, 56, 8)},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Training returns the kernels whose data may be used for training.
func Training() []Spec { return filter(Suite(), func(s Spec) bool { return s.Training }) }

// Evaluation returns the held-out kernels (never used in training).
func Evaluation() []Spec { return filter(Suite(), func(s Spec) bool { return !s.Training }) }

func filter(in []Spec, keep func(Spec) bool) []Spec {
	var out []Spec
	for _, s := range in {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("kernels: unknown kernel %q", name)
}
