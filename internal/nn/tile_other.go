//go:build !amd64

package nn

// hasAVX2 is false off amd64: forwardBatchInto, the scalar tile, is the
// only batch kernel there, and training takes the scalar step.
func hasAVX2() bool { return false }

func denseTile(w, b, x, y *float64, in, out int, relu bool) {
	panic("nn: no vector tile on this architecture")
}

func trainBackward(w, gw, gb, x, dy, dx *float64, live *int, in, out int) {
	panic("nn: no vector training step on this architecture")
}

func adamStep(w, grad, m, v, mask *float64, n int, c *adamCoef) {
	panic("nn: no vector training step on this architecture")
}
