package datagen

import (
	"math"
	"math/rand"

	"ssmdvfs/internal/counters"
)

// hashFeatures fingerprints a feature vector (FNV-1a over the float bits)
// so samples born from the same feature window group together even after
// dataset shuffles.
func hashFeatures(feats []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, f := range feats {
		b := math.Float64bits(f)
		for shift := 0; shift < 64; shift += 8 {
			h ^= (b >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// DecisionRows assembles the Decision-maker's training matrix: each row is
// the selected feature columns followed by the sample's actual performance
// loss (the quantity that becomes the "performance loss preset" input at
// inference time). Labels are the operating-point levels applied in the
// scaling window.
func (d *Dataset) DecisionRows(featureIdx []int) (rows [][]float64, labels []int) {
	rows = make([][]float64, len(d.Samples))
	labels = make([]int, len(d.Samples))
	for i, s := range d.Samples {
		row := make([]float64, len(featureIdx)+1)
		copy(row, counters.Select(s.Features, featureIdx))
		row[len(featureIdx)] = s.PerfLoss
		rows[i] = row
		labels[i] = s.Level
	}
	return rows, labels
}

// DecisionRowsPresetSampled assembles a Decision-maker training matrix
// that targets the paper's classification criterion directly: "select
// the minimum frequency that satisfies a given performance loss preset".
// Samples generated from the same feature window carry the complete
// per-level loss vector, so for sampled presets p the exact label —
// the minimum level whose measured loss stays within p — is known. Each
// group contributes perGroup rows with presets spread over [0, maxLoss·1.1]
// plus deterministic jitter. Compared with DecisionRows (whose input is
// the actual loss each level caused), this covers the preset input space
// densely and teaches the min-level rule rather than the inverse
// loss→level mapping.
func (d *Dataset) DecisionRowsPresetSampled(featureIdx []int, perGroup int, seed int64) (rows [][]float64, labels []int) {
	if perGroup <= 0 {
		perGroup = 8
	}
	rng := rand.New(rand.NewSource(seed))

	type groupKey struct {
		kernel  string
		bp      int
		cluster int
		// Samples from the same feature window share an identical feature
		// vector; hashing it separates windows that share (kernel,
		// breakpoint, cluster) — e.g. feature windows collected at
		// different operating points.
		featHash uint64
	}
	type group struct {
		features []float64
		losses   []float64 // indexed by level
		have     []bool
	}
	groups := map[groupKey]*group{}
	var order []groupKey
	for i := range d.Samples {
		s := &d.Samples[i]
		k := groupKey{kernel: s.Kernel, bp: s.Breakpoint, cluster: s.Cluster, featHash: hashFeatures(s.Features)}
		g := groups[k]
		if g == nil {
			g = &group{
				features: s.Features,
				losses:   make([]float64, d.Levels),
				have:     make([]bool, d.Levels),
			}
			groups[k] = g
			order = append(order, k)
		}
		g.losses[s.Level] = s.PerfLoss
		g.have[s.Level] = true
	}

	for _, k := range order {
		g := groups[k]
		complete := true
		maxLoss := 0.0
		for lvl := 0; lvl < d.Levels; lvl++ {
			if !g.have[lvl] {
				complete = false
				break
			}
			if g.losses[lvl] > maxLoss {
				maxLoss = g.losses[lvl]
			}
		}
		if !complete {
			continue
		}
		span := maxLoss * 1.1
		if span <= 0 {
			span = 0.02
		}
		for s := 0; s < perGroup; s++ {
			// Stratified presets with jitter: cover [0, span] evenly but
			// not on a fixed grid.
			p := (float64(s) + rng.Float64()) / float64(perGroup) * span
			label := d.Levels - 1
			for lvl := 0; lvl < d.Levels; lvl++ {
				if g.losses[lvl] <= p {
					label = lvl
					break
				}
			}
			row := make([]float64, len(featureIdx)+1)
			copy(row, counters.Select(g.features, featureIdx))
			row[len(featureIdx)] = p
			rows = append(rows, row)
			labels = append(labels, label)
		}
	}
	return rows, labels
}

// CalibratorRows assembles the Calibrator's training matrix: the decision
// inputs plus the chosen level, with the scaling-window instruction count
// as the regression target.
func (d *Dataset) CalibratorRows(featureIdx []int) (rows [][]float64, targets []float64) {
	rows = make([][]float64, len(d.Samples))
	targets = make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		row := make([]float64, len(featureIdx)+2)
		copy(row, counters.Select(s.Features, featureIdx))
		row[len(featureIdx)] = s.PerfLoss
		row[len(featureIdx)+1] = float64(s.Level)
		rows[i] = row
		targets[i] = s.ScalingInstr
	}
	return rows, targets
}

// Split partitions the dataset into train and validation subsets with the
// given train fraction, shuffling deterministically by seed. Samples from
// the same breakpoint stay correlated, so the shuffle is over samples —
// adequate for model selection, while kernel-level generalization is
// assessed by the held-out evaluation kernels.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, val *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(d.Samples))
	nTrain := int(float64(len(d.Samples)) * trainFrac)
	train = &Dataset{CounterNames: d.CounterNames, Levels: d.Levels}
	val = &Dataset{CounterNames: d.CounterNames, Levels: d.Levels}
	for i, idx := range order {
		if i < nTrain {
			train.Samples = append(train.Samples, d.Samples[idx])
		} else {
			val.Samples = append(val.Samples, d.Samples[idx])
		}
	}
	return train, val
}
