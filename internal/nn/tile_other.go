//go:build !amd64

package nn

// hasAVX2 is false off amd64: forwardBatchInto, the scalar tile, is the
// only batch kernel there.
func hasAVX2() bool { return false }

func denseTile(w, b, x, y *float64, in, out int, relu bool) {
	panic("nn: no vector tile on this architecture")
}
