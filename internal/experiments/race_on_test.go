//go:build race

package experiments

// raceEnabled sizes TestSharedRunIsTheSoloRun: the whole cross product
// where CI runs it by name, under the race detector; a cross-section of it
// in the plain tier-1 pass, whose wall time it would otherwise double.
const raceEnabled = true
