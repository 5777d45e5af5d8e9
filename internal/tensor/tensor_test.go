package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"ndsnn/internal/rng"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat32()
	}
	return t
}

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if off := x.Offset(1, 2, 3); off != 1*12+2*4+3 {
		t.Fatalf("Offset = %d, want 23", off)
	}
}

func TestOffsetOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Offset did not panic")
		}
	}()
	x.Offset(0, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := x.Clone()
	c.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := x.Reshape(3, 2)
	v.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape does not share storage")
	}
	if v.Dim(0) != 3 || v.Dim(1) != 2 {
		t.Fatalf("Reshape shape = %v", v.Shape())
	}
}

func TestReshapeWrongCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	New(2, 3).Reshape(7)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	sum := Add(a, b)
	for i, want := range []float32{11, 22, 33, 44} {
		if sum.Data[i] != want {
			t.Fatalf("Add[%d] = %v, want %v", i, sum.Data[i], want)
		}
	}
	diff := Sub(b, a)
	for i, want := range []float32{9, 18, 27, 36} {
		if diff.Data[i] != want {
			t.Fatalf("Sub[%d] = %v, want %v", i, diff.Data[i], want)
		}
	}
	prod := Mul(a, b)
	for i, want := range []float32{10, 40, 90, 160} {
		if prod.Data[i] != want {
			t.Fatalf("Mul[%d] = %v, want %v", i, prod.Data[i], want)
		}
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 5}, 2)
	a.AddInPlace(b)
	if a.Data[0] != 4 || a.Data[1] != 7 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	a.SubInPlace(b)
	if a.Data[0] != 1 || a.Data[1] != 2 {
		t.Fatalf("SubInPlace = %v", a.Data)
	}
	a.MulInPlace(b)
	if a.Data[0] != 3 || a.Data[1] != 10 {
		t.Fatalf("MulInPlace = %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 6 || a.Data[1] != 20 {
		t.Fatalf("Scale = %v", a.Data)
	}
	a.AXPY(0.5, b)
	if a.Data[0] != 7.5 || a.Data[1] != 22.5 {
		t.Fatalf("AXPY = %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2, 2), New(4))
}

func TestAddCommutativeProperty(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		a := randTensor(rr, 3, 5)
		b := randTensor(rr, 3, 5)
		ab := Add(a, b)
		ba := Add(b, a)
		for i := range ab.Data {
			if ab.Data[i] != ba.Data[i] {
				return false
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 2, -3, 4}, 2, 2)
	if s := x.Sum(); s != 2 {
		t.Fatalf("Sum = %v, want 2", s)
	}
	if m := x.Mean(); m != 0.5 {
		t.Fatalf("Mean = %v, want 0.5", m)
	}
	if m := x.Max(); m != 4 {
		t.Fatalf("Max = %v, want 4", m)
	}
	if m := x.Min(); m != -3 {
		t.Fatalf("Min = %v, want -3", m)
	}
	if n := x.CountNonZero(); n != 4 {
		t.Fatalf("CountNonZero = %d, want 4", n)
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 5, 3, 9, 1, 2}, 2, 3)
	if i := x.ArgMaxRow(0); i != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", i)
	}
	if i := x.ArgMaxRow(1); i != 0 {
		t.Fatalf("ArgMaxRow(1) = %d, want 0", i)
	}
}

func TestArgMaxRowTieBreaksLow(t *testing.T) {
	x := FromSlice([]float32{3, 3, 3}, 1, 3)
	if i := x.ArgMaxRow(0); i != 0 {
		t.Fatalf("tie ArgMaxRow = %d, want 0", i)
	}
}

func TestHasNaN(t *testing.T) {
	x := New(3)
	if x.HasNaN() {
		t.Fatal("zero tensor reported NaN")
	}
	x.Data[1] = float32(math.NaN())
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	y := New(2)
	y.Data[0] = float32(math.Inf(1))
	if !y.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	xt := Transpose2D(x)
	if xt.Dim(0) != 3 || xt.Dim(1) != 2 {
		t.Fatalf("transpose shape = %v", xt.Shape())
	}
	want := []float32{1, 4, 2, 5, 3, 6}
	for i, v := range want {
		if xt.Data[i] != v {
			t.Fatalf("transpose[%d] = %v, want %v", i, xt.Data[i], v)
		}
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		rows := r.Intn(40) + 1
		cols := r.Intn(40) + 1
		x := randTensor(r, rows, cols)
		y := Transpose2D(Transpose2D(x))
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a.Data[i*k+l] * b.Data[l*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(42)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 65, 17}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("MatMul %v: element %d = %v, want %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(7)
	a := randTensor(r, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	got := MatMul(a, id)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatMulABT(t *testing.T) {
	r := rng.New(9)
	a := randTensor(r, 6, 5)
	b := randTensor(r, 7, 5)
	got := MatMulABT(a, b)
	want := naiveMatMul(a, Transpose2D(b))
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulABT element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulATB(t *testing.T) {
	r := rng.New(10)
	a := randTensor(r, 5, 6)
	b := randTensor(r, 5, 7)
	got := MatMulATB(a, b)
	want := naiveMatMul(Transpose2D(a), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulATB element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	r := rng.New(11)
	a := randTensor(r, 3, 4)
	b := randTensor(r, 4, 2)
	dst := randTensor(r, 3, 2)
	base := dst.Clone()
	MatMulInto(dst, a, b, true)
	prod := naiveMatMul(a, b)
	for i := range dst.Data {
		want := base.Data[i] + prod.Data[i]
		if !almostEq(dst.Data[i], want, 1e-4) {
			t.Fatalf("accumulate element %d = %v, want %v", i, dst.Data[i], want)
		}
	}
}

func TestMatMulInnerDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if d := Dot(a, b); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
}

func TestMatMulDistributiveProperty(t *testing.T) {
	// A·(B+C) == A·B + A·C within float tolerance.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		m, k, n := r.Intn(8)+1, r.Intn(8)+1, r.Intn(8)+1
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c := randTensor(r, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
