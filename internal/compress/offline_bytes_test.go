package compress_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/kernels"
)

// offlineBuildDigests are the SHA-256 of what TestOfflineBuildBytes builds,
// recorded before the simulator, training and datagen speedups that must
// not move them: the corpus JSON, the trained model's JSON and the pruned
// model's JSON; initial, recorded before training moved to the vector
// unit, is the paper's initial architecture (decision 4×20, calibrator
// 3×20) trained on the same corpus. Any edit that changes one of them has
// changed a simulated number, a label, a float operation of training or
// its order.
var offlineBuildDigests = struct{ dataset, model, pruned, initial string }{
	dataset: "fa669728ecf8cdca5e85779d7959a6f755221fbd433307f9be4cfd828e09c3d6",
	model:   "a9c3a045e61d3740eb714f6083e9557e5037b638f5df9b76207b9ee32d308b43",
	pruned:  "2ae4f7f3dd835b3205942345d96b97593d620007343a7a493f1dfeedd4062575",
	initial: "197bbc355c28f443ce1a7dee398050fcff25cf097494f5c20c02c6ea9bf54820",
}

func sha(t *testing.T, save func(*bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestOfflineBuildBytes pins the offline build byte for byte: a RunSuite
// corpus over two training kernels at the quick settings (three
// breakpoints in all), the compressed architecture trained on it with
// core.Train, that model through compress.PruneModel, and the initial
// architecture trained on it too (20 wide, so training's vector kernels
// run full groups of four as well as a tail). The digests hold
// for amd64, where Go does not fuse multiply-adds.
func TestOfflineBuildBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	opts := experiments.QuickPipelineOptions()
	dg := datagen.DefaultConfig(opts.Sim)
	dg.BreakpointPs, dg.MaxBreakpoints, dg.ClusterStride = opts.BreakpointPs, opts.MaxBreakpoints, opts.ClusterStride
	var ks []isa.Kernel
	for _, name := range []string{"parboil.spmv", "polybench.atax"} {
		spec, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, spec.Build(opts.Scale))
	}
	ds, err := datagen.RunSuite(datagen.SuiteOptions{Config: dg, Kernels: ks, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	train := opts.TrainOpts
	train.Arch = core.PaperCompressed()
	m, _, err := core.Train(ds, train)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := compress.PruneModel(m, ds, opts.PruneOpts)
	if err != nil {
		t.Fatal(err)
	}
	train.Arch = core.PaperInitial()
	initial, _, err := core.Train(ds, train)
	if err != nil {
		t.Fatal(err)
	}

	got := []struct{ what, digest, want string }{
		{"corpus", sha(t, func(b *bytes.Buffer) error { return ds.Save(b) }), offlineBuildDigests.dataset},
		{"trained model", sha(t, func(b *bytes.Buffer) error { return m.Save(b) }), offlineBuildDigests.model},
		{"pruned model", sha(t, func(b *bytes.Buffer) error { return pruned.Save(b) }), offlineBuildDigests.pruned},
		{"initial model", sha(t, func(b *bytes.Buffer) error { return initial.Save(b) }), offlineBuildDigests.initial},
	}
	for _, g := range got {
		if g.digest != g.want {
			t.Errorf("%s (%d samples) digest = %s, want %s", g.what, len(ds.Samples), g.digest, g.want)
		}
	}
}
