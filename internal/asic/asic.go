// Package asic models the hardware implementation of Section V-D: a
// small FP32 MAC-array inference engine executing the compressed SSMDVFS
// model, with cycle, area, and power estimates at a synthesis node
// (65 nm TSMC in the paper) scaled to the GPU's 28 nm node with
// DeepScaleTool-style technology factors.
package asic

import (
	"fmt"
	"math"

	"ssmdvfs/internal/core"
)

// nodeVoltage gives nominal supply voltage per technology node (nm), the
// basis of the power-scaling factor (capacitance ∝ node, P ∝ C·V²·f).
var nodeVoltage = map[int]float64{
	180: 1.8,
	130: 1.3,
	90:  1.2,
	65:  1.1,
	45:  1.0,
	32:  0.95,
	28:  0.90,
	20:  0.85,
	16:  0.80,
}

// ScaleArea returns the factor multiplying area when moving a design from
// one node to another (classical (target/source)² dimensional scaling).
func ScaleArea(fromNm, toNm int) (float64, error) {
	if err := checkNodes(fromNm, toNm); err != nil {
		return 0, err
	}
	r := float64(toNm) / float64(fromNm)
	return r * r, nil
}

// ScalePower returns the factor multiplying dynamic power at constant
// frequency: capacitance scales with feature size and switching energy
// with V².
func ScalePower(fromNm, toNm int) (float64, error) {
	if err := checkNodes(fromNm, toNm); err != nil {
		return 0, err
	}
	vr := nodeVoltage[toNm] / nodeVoltage[fromNm]
	return (float64(toNm) / float64(fromNm)) * vr * vr, nil
}

func checkNodes(fromNm, toNm int) error {
	if _, ok := nodeVoltage[fromNm]; !ok {
		return fmt.Errorf("asic: unknown source node %d nm", fromNm)
	}
	if _, ok := nodeVoltage[toNm]; !ok {
		return fmt.Errorf("asic: unknown target node %d nm", toNm)
	}
	return nil
}

// HardwareScale returns rough area and energy multipliers for a b-bit
// integer MAC relative to the FP32 MAC Config is calibrated for:
// multiplier area/energy grow roughly quadratically with operand width,
// and an INT16 MAC is commonly ~5× smaller than FP32.
func HardwareScale(bits int) (areaFactor, energyFactor float64, err error) {
	if bits < 2 || bits > 32 {
		return 0, 0, fmt.Errorf("asic: bits must be in [2,32], got %d", bits)
	}
	r := float64(bits) / 32.0
	// FP32 carries exponent-alignment overhead an integer MAC avoids;
	// fold that into a 0.65 integer discount at equal width.
	factor := 0.65 * r * r
	return factor, factor, nil
}

// Config describes the inference engine and its characterization.
type Config struct {
	// MACs is the number of parallel FP32 multiply-accumulate units. The
	// paper's module is tiny — a single MAC reproduces its ~192-cycle
	// latency on the compressed model.
	MACs int
	// PipelineCyclesPerLayer covers activation, bias, and writeback.
	PipelineCyclesPerLayer int
	// ClockHz is the module clock (the GPU's default core clock).
	ClockHz float64

	// Characterization at the synthesis node.
	SynthesisNodeNm int
	TargetNodeNm    int
	// MACAreaUm2 is one FP32 MAC's area at the synthesis node;
	// SRAMAreaUm2PerByte covers weight/bias storage; ControlOverhead is
	// the fractional area added for control, I/O and routing.
	MACAreaUm2         float64
	SRAMAreaUm2PerByte float64
	ControlOverhead    float64
	// MACEnergyPJ is one FP32 MAC operation's energy at the synthesis
	// node; SRAMReadPJPerByte the weight-fetch energy.
	MACEnergyPJ       float64
	SRAMReadPJPerByte float64
	// LeakageWPerMM2 is static power density at the synthesis node.
	LeakageWPerMM2 float64
}

// DefaultConfig returns the characterization used to reproduce the
// paper's Section V-D numbers (65 nm synthesis, 28 nm target, single
// FP32 MAC at the 1165 MHz default clock).
func DefaultConfig() Config {
	return Config{
		MACs:                   1,
		PipelineCyclesPerLayer: 3,
		ClockHz:                1165e6,
		SynthesisNodeNm:        65,
		TargetNodeNm:           28,
		MACAreaUm2:             14000,
		SRAMAreaUm2PerByte:     16,
		ControlOverhead:        0.35,
		MACEnergyPJ:            8.0,
		SRAMReadPJPerByte:      1.2,
		LeakageWPerMM2:         0.02,
	}
}

// Report is the hardware estimate for one model.
type Report struct {
	CyclesPerInference int
	LatencyUs          float64
	AreaMM2            float64
	// EnergyPJ is energy per inference; PowerW the average power while
	// inferring.
	EnergyPJ float64
	PowerW   float64
	// EpochFraction is latency over the 10 µs DVFS period.
	EpochFraction float64
	// WeightBytes is the weight+bias storage footprint.
	WeightBytes int
}

// Estimate computes the hardware cost of running the model on the engine.
// Pruned models are costed by their surviving (nonzero) weights — the
// engine skips zeros via its weight-index SRAM, as in standard sparse
// MLP accelerators.
func Estimate(m *core.Model, cfg Config) (Report, error) {
	var rep Report
	if cfg.MACs <= 0 || cfg.ClockHz <= 0 {
		return rep, fmt.Errorf("asic: MACs and ClockHz must be positive")
	}
	areaScale, err := ScaleArea(cfg.SynthesisNodeNm, cfg.TargetNodeNm)
	if err != nil {
		return rep, err
	}
	powerScale, err := ScalePower(cfg.SynthesisNodeNm, cfg.TargetNodeNm)
	if err != nil {
		return rep, err
	}

	// Cycle count: MAC-limited per layer plus pipeline overhead.
	layers := 0
	macOps := 0
	params := 0
	for _, l := range m.Decision.Layers {
		layers++
		macOps += l.NonzeroWeights()
		params += l.NonzeroWeights() + l.Out
	}
	for _, l := range m.Calibrator.Layers {
		layers++
		macOps += l.NonzeroWeights()
		params += l.NonzeroWeights() + l.Out
	}
	cycles := (macOps+cfg.MACs-1)/cfg.MACs + layers*cfg.PipelineCyclesPerLayer
	rep.CyclesPerInference = cycles
	rep.LatencyUs = float64(cycles) / cfg.ClockHz * 1e6
	rep.EpochFraction = rep.LatencyUs / 10.0

	// Area: MACs + weight SRAM (4 bytes/param FP32) + control overhead,
	// scaled to the target node.
	rep.WeightBytes = params * 4
	areaUm2 := float64(cfg.MACs)*cfg.MACAreaUm2 + float64(rep.WeightBytes)*cfg.SRAMAreaUm2PerByte
	areaUm2 *= 1 + cfg.ControlOverhead
	rep.AreaMM2 = areaUm2 * areaScale / 1e6

	// Energy: MAC ops + weight fetches, scaled; power averaged over the
	// inference latency plus leakage.
	energyPJ := float64(macOps)*cfg.MACEnergyPJ + float64(rep.WeightBytes)*cfg.SRAMReadPJPerByte
	energyPJ *= powerScale
	rep.EnergyPJ = energyPJ
	leakW := cfg.LeakageWPerMM2 * rep.AreaMM2
	rep.PowerW = energyPJ*1e-12/(rep.LatencyUs*1e-6) + leakW
	if math.IsNaN(rep.PowerW) || math.IsInf(rep.PowerW, 0) {
		return rep, fmt.Errorf("asic: degenerate power estimate")
	}
	return rep, nil
}
