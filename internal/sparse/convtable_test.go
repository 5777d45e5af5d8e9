package sparse

import "ndsnn/internal/tensor"

// Oracles for the synapse table's walks, computed over the dense im2col
// matrix of the decoded events: the forward walk against an in-order dense
// product, the gradient walk against the dense-operand SDDMM
// CSRGradABTSerial.

// convGeom is the geometry of a k×k convolution from inC channels of h×w
// to outC channels.
type convGeom struct{ inC, outC, k, stride, pad, h, w int }

// outSize returns the output height and width.
func (g convGeom) outSize() (oh, ow int) {
	return tensor.ConvOutSize(g.h, g.k, g.stride, g.pad), tensor.ConvOutSize(g.w, g.k, g.stride, g.pad)
}

// im2col decodes events into a dense [inC, h, w] input and returns its
// [inC·k·k, oh·ow] im2col matrix.
func (g convGeom) im2col(evs []Event) *tensor.Tensor {
	x := make([]float32, g.inC*g.h*g.w)
	for _, ev := range evs {
		x[ev.Idx] = ev.Val
	}
	oh, ow := g.outSize()
	col := tensor.New(g.inC*g.k*g.k, oh*ow)
	tensor.Im2Col(col.Data, x, g.inC, g.h, g.w, g.k, g.k, g.stride, g.pad, oh, ow)
	return col
}

// denseScatter is the forward walk's oracle: out[f, j] accumulates
// w[f, c]·W(col[c, j]·inv) over c ascending, skipping exact-zero weights and
// entries, and the count of those terms is the SynOps it returns.
func denseScatter[W Weight](out, w []W, col *tensor.Tensor, inv float32) int64 {
	ckk, p := col.Dim(0), col.Dim(1)
	var ops int64
	for f := 0; f < len(out)/p; f++ {
		for j := 0; j < p; j++ {
			for c := 0; c < ckk; c++ {
				wv, cv := w[f*ckk+c], col.Data[c*p+j]
				if wv == 0 || cv == 0 {
					continue
				}
				out[f*p+j] += wv * W(cv*inv)
				ops++
			}
		}
	}
	return ops
}

// spikesOf returns the events' positions as a spike list and as binary
// events.
func spikesOf(evs []Event) ([]int32, []Event) {
	idx := make([]int32, len(evs))
	bin := make([]Event, len(evs))
	for i, ev := range evs {
		idx[i] = ev.Idx
		bin[i] = Event{Idx: ev.Idx, Val: 1}
	}
	return idx, bin
}
