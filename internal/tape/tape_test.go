package tape_test

import (
	"testing"

	"ndsnn/internal/rng"
	"ndsnn/internal/tape"
	"ndsnn/internal/tensor"
)

// withCacheEvents runs fn with tape.CacheEvents forced and restored after.
func withCacheEvents(on bool, fn func()) {
	old := tape.CacheEvents
	tape.CacheEvents = on
	defer func() { tape.CacheEvents = old }()
	fn()
}

func spikeTensor(r *rng.RNG, rate float64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if r.Float64() < rate {
			x.Data[i] = 1
		}
	}
	return x
}

// TestStackEventEncoding: binary low-rate tensors are recorded as events
// that keep their original shape and decode back bit-identically.
func TestStackEventEncoding(t *testing.T) {
	r := rng.New(11)
	x := spikeTensor(r, 0.1, 3, 4, 5, 5)
	var s tape.Stack
	withCacheEvents(true, func() { s.Push(x) })
	if s.Len() != 1 {
		t.Fatalf("Len %d, want 1", s.Len())
	}
	rec := s.Pop()
	if !rec.IsEvents() {
		t.Fatal("low-rate binary tensor not event-encoded")
	}
	if ev := rec.Events(); ev.Rows != 3 || ev.Cols != 4*5*5 {
		t.Fatalf("event pattern [%d,%d], want [3,100]", ev.Rows, ev.Cols)
	}
	m := tensor.New(rec.Shape()...)
	if !m.SameShape(x) {
		t.Fatalf("recorded shape %v, want %v", m.Shape(), x.Shape())
	}
	ev := rec.Events()
	for row := 0; row < ev.Rows; row++ {
		ev.ScatterRowInto(row, m.Data[row*ev.Cols:(row+1)*ev.Cols], 1)
	}
	for i := range x.Data {
		if m.Data[i] != x.Data[i] {
			t.Fatalf("decoded[%d] = %v, want %v", i, m.Data[i], x.Data[i])
		}
	}
}

// TestStackDenseFallbacks: analog tensors, high-occupancy spikes, and the
// CacheEvents kill switch all keep the dense representation (and Dense
// returns the original tensor untouched).
func TestStackDenseFallbacks(t *testing.T) {
	r := rng.New(21)
	var s tape.Stack

	analog := tensor.New(2, 6)
	for i := range analog.Data {
		analog.Data[i] = r.NormFloat32()
	}
	withCacheEvents(true, func() { s.Push(analog) })
	if rec := s.Pop(); rec.IsEvents() || rec.Dense() != analog {
		t.Fatal("analog tensor should be cached dense, by reference")
	}

	hot := spikeTensor(r, 0.95, 2, 50) // occupancy above the 0.5 cache gate
	withCacheEvents(true, func() { s.Push(hot) })
	if rec := s.Pop(); rec.IsEvents() {
		t.Fatal("high-occupancy tensor should be cached dense")
	}

	cold := spikeTensor(r, 0.05, 2, 50)
	withCacheEvents(false, func() { s.Push(cold) })
	if rec := s.Pop(); rec.IsEvents() {
		t.Fatal("CacheEvents=false must force dense caching")
	}
}

// TestMeterAccounting: the package meter tracks retained bytes across
// push/pop/clear, and events cost ~occupancy of the dense footprint.
func TestMeterAccounting(t *testing.T) {
	r := rng.New(31)
	base := tape.CacheBytes()
	var s tape.Stack

	x := spikeTensor(r, 0.1, 8, 1000)
	dense := int64(x.Size()) * 4
	withCacheEvents(true, func() { s.Push(x) })
	evBytes := tape.CacheBytes() - base
	if evBytes <= 0 || evBytes > dense/2 {
		t.Fatalf("event record costs %d bytes, want well under dense %d", evBytes, dense)
	}

	withCacheEvents(false, func() { s.Push(x) })
	if got := tape.CacheBytes() - base; got != evBytes+dense {
		t.Fatalf("dense record accounting: %d, want %d", got, evBytes+dense)
	}

	tape.ResetPeak()
	if tape.PeakBytes() != tape.CacheBytes() {
		t.Fatal("ResetPeak should restart from current size")
	}
	y := spikeTensor(r, 0.1, 8, 1000)
	withCacheEvents(true, func() { s.Push(y) })
	peakWith := tape.PeakBytes()
	s.Pop()
	if tape.PeakBytes() != peakWith {
		t.Fatal("peak must not shrink on pop")
	}

	s.Clear()
	if got := tape.CacheBytes(); got != base {
		t.Fatalf("Clear left %d bytes retained (base %d)", got, base)
	}
	if s.Len() != 0 {
		t.Fatalf("Clear left %d records", s.Len())
	}
}

// TestMeterDoesNotDoubleCountAliasedTensor: direct encoding pushes the SAME
// input tensor once per timestep; the meter must charge the retained heap
// once, not once per record.
func TestMeterDoesNotDoubleCountAliasedTensor(t *testing.T) {
	r := rng.New(51)
	base := tape.CacheBytes()
	var s tape.Stack
	x := tensor.New(2, 30)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	withCacheEvents(true, func() {
		for i := 0; i < 5; i++ {
			s.Push(x) // analog → dense record aliasing the same tensor
		}
	})
	if got, want := tape.CacheBytes()-base, int64(x.Size())*4; got != want {
		t.Fatalf("5 aliased pushes metered %d bytes, want %d (one copy)", got, want)
	}
	for i := 0; i < 5; i++ {
		if rec := s.Pop(); rec.Dense() != x {
			t.Fatal("aliased record lost its tensor")
		}
	}
	if got := tape.CacheBytes(); got != base {
		t.Fatalf("meter leaked %d bytes after popping aliased records", got-base)
	}
}

// TestStackPopOrder: LIFO replay order, mixed representations.
func TestStackPopOrder(t *testing.T) {
	r := rng.New(41)
	var s tape.Stack
	a := spikeTensor(r, 0.1, 2, 9)
	b := tensor.New(2, 9)
	b.Fill(0.5)
	withCacheEvents(true, func() {
		s.Push(a)
		s.Push(b)
	})
	if rec := s.Pop(); rec.IsEvents() || rec.Dense() != b {
		t.Fatal("first pop should return the analog record b")
	}
	if rec := s.Pop(); !rec.IsEvents() {
		t.Fatal("second pop should return the event record a")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty stack should panic")
		}
	}()
	s.Pop()
}

// seqDouble is a SequenceLayer that doubles inputs and counts how it was
// driven, to verify Run prefers ForwardSeq.
type seqDouble struct {
	seqCalls, stepCalls int
}

func (l *seqDouble) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.stepCalls++
	return tensor.Map(x, func(v float32) float32 { return 2 * v })
}

func (l *seqDouble) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return tensor.Map(dy, func(v float32) float32 { return 2 * v })
}

func (l *seqDouble) ForwardSeq(xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	l.seqCalls++
	out := make([]*tensor.Tensor, len(xs))
	for t, x := range xs {
		out[t] = tensor.Map(x, func(v float32) float32 { return 2 * v })
	}
	return out
}

// stepInc is a plain per-timestep layer (no ForwardSeq).
type stepInc struct{}

func (stepInc) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return tensor.Map(x, func(v float32) float32 { return v + 1 })
}

func (stepInc) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }

func TestRunDrivesSequenceLayers(t *testing.T) {
	sd := &seqDouble{}
	ls := []tape.Layer{sd, stepInc{}}
	xs := []*tensor.Tensor{tensor.FromSlice([]float32{1, 2}, 1, 2), tensor.FromSlice([]float32{3, 4}, 1, 2)}
	outs := tape.Run(ls, xs, true)
	if sd.seqCalls != 1 || sd.stepCalls != 0 {
		t.Fatalf("SequenceLayer driven %d seq / %d step calls, want 1/0", sd.seqCalls, sd.stepCalls)
	}
	want := [][]float32{{3, 5}, {7, 9}}
	for tt, o := range outs {
		for i, v := range o.Data {
			if v != want[tt][i] {
				t.Fatalf("outs[%d][%d] = %v, want %v", tt, i, v, want[tt][i])
			}
		}
	}
	// Backward runs layers in reverse, all timesteps each: the doubling layer
	// applies once to each timestep gradient.
	dins := tape.RunBackward(ls, outs)
	for tt, g := range dins {
		for i, v := range g.Data {
			if v != 2*want[tt][i] {
				t.Fatalf("dins[%d][%d] = %v, want %v", tt, i, v, 2*want[tt][i])
			}
		}
	}
}
