package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/serve"
)

// presets are the two performance-loss budgets of the paper's Fig. 4;
// every serving workload mixes them row by row.
var presets = [2]float64{0.10, 0.20}

// expect is the reference answer for one row: what an in-process
// core.Inference.Decide returns for it with the float64 backend.
type expect struct {
	level int
	pred  float64
}

// frame is one request the load generator sends and what must come back.
type frame struct {
	rows []serve.Request
	want []expect
}

// inputs are the committed artifacts every serving workload draws from:
// the 2592 oracle rows of the cached dataset and the compressed model.
type inputs struct {
	model *core.Model
	ds    *datagen.Dataset
	ref   [][2]expect // by sample, by preset index
}

func cachePath(root, name string) string {
	return filepath.Join(root, "testdata", "bench-cache", name)
}

// loadInputs reads the artifacts and computes the reference decision of
// every (row, preset) pair.
func loadInputs(root string) (*inputs, error) {
	ds, err := datagen.LoadFile(cachePath(root, "dataset.json"))
	if err != nil {
		return nil, err
	}
	m, err := core.LoadFile(cachePath(root, "compressed.json"))
	if err != nil {
		return nil, err
	}
	if err := m.EnsureBackends(); err != nil {
		return nil, err
	}
	in := &inputs{model: m, ds: ds, ref: make([][2]expect, len(ds.Samples))}
	inf := core.NewInference(m)
	for i := range ds.Samples {
		for p, preset := range presets {
			level, pred := inf.Decide(ds.Samples[i].Features, preset)
			in.ref[i][p] = expect{level, pred}
		}
	}
	return in, nil
}

// keyFunc gives row r of a caller's n-th frame its (gpu, cluster)
// identity.
type keyFunc func(n, r int) (gpu, cluster int32)

// frames deals the dataset, shuffled by rng, into frames of rowsPerFrame
// rows, each row under a preset drawn by rng and the identity key gives
// it. Leftover rows are dropped, and one frame more if that makes the
// count odd: a caller sends its frames round and round, and every
// checkEvery-th send (an even number) then walks all of them.
func (in *inputs) frames(rng *rand.Rand, rowsPerFrame int, key keyFunc) ([]frame, error) {
	n := len(in.ds.Samples) / rowsPerFrame
	if n == 0 {
		return nil, fmt.Errorf("dataset has %d rows, fewer than one frame of %d", len(in.ds.Samples), rowsPerFrame)
	}
	if n > 1 && n%2 == 0 {
		n--
	}
	perm := rng.Perm(len(in.ds.Samples))
	out := make([]frame, n)
	for f := range out {
		rows := make([]serve.Request, rowsPerFrame)
		want := make([]expect, rowsPerFrame)
		for r := range rows {
			s := perm[f*rowsPerFrame+r]
			p := rng.Intn(len(presets))
			gpu, cluster := key(f, r)
			rows[r] = serve.Request{Preset: presets[p], Features: in.ds.Samples[s].Features, GPU: gpu, Cluster: cluster}
			want[r] = in.ref[s][p]
		}
		out[f] = frame{rows: rows, want: want}
	}
	return out, nil
}
