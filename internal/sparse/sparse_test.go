package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"ndsnn/internal/rng"
	"ndsnn/internal/tensor"
)

func TestERKConservesGlobalDensity(t *testing.T) {
	shapes := [][]int{
		{64, 3, 3, 3},
		{128, 64, 3, 3},
		{256, 128, 3, 3},
		{10, 256},
	}
	for _, density := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5} {
		ds := ERKDensities(shapes, density)
		got := GlobalDensityOf(shapes, ds)
		if math.Abs(got-density)/density > 1e-9 {
			t.Fatalf("density %v: ERK global density = %v", density, got)
		}
		for i, d := range ds {
			if d < 0 || d > 1 {
				t.Fatalf("density %v: layer %d density %v outside [0,1]", density, i, d)
			}
		}
	}
}

func TestERKGivesSmallLayersHigherDensity(t *testing.T) {
	// ERK's point: parameter-light layers keep more of their weights.
	shapes := [][]int{
		{16, 3, 3, 3},    // small first conv
		{512, 512, 3, 3}, // huge mid conv
	}
	ds := ERKDensities(shapes, 0.1)
	if ds[0] <= ds[1] {
		t.Fatalf("expected small layer denser: %v vs %v", ds[0], ds[1])
	}
}

func TestERKCapsAtOneAndRedistributes(t *testing.T) {
	shapes := [][]int{
		{4, 2, 3, 3}, // tiny layer: raw scale pushes density > 1
		{256, 256, 3, 3},
	}
	ds := ERKDensities(shapes, 0.3)
	if ds[0] != 1 {
		t.Fatalf("tiny layer density = %v, want capped at 1", ds[0])
	}
	if got := GlobalDensityOf(shapes, ds); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("global density after cap = %v, want 0.3", got)
	}
}

func TestERKFullDensity(t *testing.T) {
	shapes := [][]int{{8, 4, 3, 3}, {16, 8, 3, 3}}
	ds := ERKDensities(shapes, 1)
	for i, d := range ds {
		if d != 1 {
			t.Fatalf("layer %d density = %v, want 1", i, d)
		}
	}
}

func TestERKPanicsOnBadDensity(t *testing.T) {
	for _, d := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("density %v did not panic", d)
				}
			}()
			ERKDensities([][]int{{4, 4}}, d)
		}()
	}
}

func TestERKDensityConservationProperty(t *testing.T) {
	f := func(seed uint16, dRaw uint8) bool {
		r := rng.New(uint64(seed))
		nLayers := r.Intn(5) + 2
		shapes := make([][]int, nLayers)
		for i := range shapes {
			shapes[i] = []int{r.Intn(60) + 4, r.Intn(60) + 4, 3, 3}
		}
		density := 0.02 + 0.9*float64(dRaw)/255
		ds := ERKDensities(shapes, density)
		return math.Abs(GlobalDensityOf(shapes, ds)-density) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDensities(t *testing.T) {
	ds := UniformDensities(3, 0.25)
	for _, d := range ds {
		if d != 0.25 {
			t.Fatalf("uniform density = %v", d)
		}
	}
}

func TestRandomMaskExactCount(t *testing.T) {
	r := rng.New(4)
	m := RandomMask([]int{10, 10}, 0.37, r)
	if nz := m.CountNonZero(); nz != 37 {
		t.Fatalf("mask nonzeros = %d, want 37", nz)
	}
	for _, v := range m.Data {
		if v != 0 && v != 1 {
			t.Fatalf("mask value %v not binary", v)
		}
	}
}

func TestCountForDensityClamps(t *testing.T) {
	if CountForDensity(10, 1.5) != 10 {
		t.Fatal("did not clamp above")
	}
	if CountForDensity(10, -0.5) != 0 {
		t.Fatal("did not clamp below")
	}
	if CountForDensity(10, 0.55) != 6 {
		t.Fatal("rounding wrong")
	}
}

func TestBottomKActive(t *testing.T) {
	w := tensor.FromSlice([]float32{0.5, -0.1, 0.9, -0.01, 0.3}, 5)
	mask := tensor.FromSlice([]float32{1, 1, 1, 0, 1}, 5)
	// Active magnitudes: 0.5, 0.1, 0.9, (masked), 0.3 → two smallest: idx 1, 4.
	got := BottomKActive(w, mask, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("BottomKActive = %v, want [1 4]", got)
	}
}

func TestBottomKActiveIgnoresMaskedOut(t *testing.T) {
	w := tensor.FromSlice([]float32{0.001, 1, 2}, 3)
	mask := tensor.FromSlice([]float32{0, 1, 1}, 3)
	got := BottomKActive(w, mask, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("BottomKActive = %v, want [1]", got)
	}
}

func TestBottomKActiveKLargerThanActive(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 2, 3}, 3)
	mask := tensor.FromSlice([]float32{1, 0, 0}, 3)
	got := BottomKActive(w, mask, 5)
	if len(got) != 1 {
		t.Fatalf("BottomKActive = %v, want single active index", got)
	}
}

func TestTopKInactive(t *testing.T) {
	g := tensor.FromSlice([]float32{10, -5, 0.1, 7, -20}, 5)
	mask := tensor.FromSlice([]float32{1, 0, 0, 0, 0}, 5)
	// Inactive grads: |−5|, |0.1|, |7|, |−20| → top-2: idx 4, 3.
	got := TopKInactive(g, mask, 2)
	if len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Fatalf("TopKInactive = %v, want [4 3]", got)
	}
}

func TestTopKMagnitude(t *testing.T) {
	w := tensor.FromSlice([]float32{0.5, -3, 1, -0.2}, 4)
	got := TopKMagnitude(w, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopKMagnitude = %v, want [1 2]", got)
	}
}

func TestTopKZeroOrNegativeK(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 2}, 2)
	mask := tensor.FromSlice([]float32{1, 1}, 2)
	if got := BottomKActive(w, mask, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := TopKInactive(w, mask, -1); got != nil {
		t.Fatalf("k=-1 returned %v", got)
	}
	if got := TopKMagnitude(w, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestSelectionDeterministicOnTies(t *testing.T) {
	w := tensor.New(8)
	w.Fill(0.5)
	mask := tensor.New(8)
	mask.Fill(1)
	a := BottomKActive(w, mask, 3)
	b := BottomKActive(w, mask, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking is nondeterministic")
		}
	}
	if a[0] != 0 || a[1] != 1 || a[2] != 2 {
		t.Fatalf("ties should break by index: %v", a)
	}
}

func TestRandomInactiveCountAndValidity(t *testing.T) {
	r := rng.New(5)
	mask := tensor.FromSlice([]float32{1, 0, 0, 1, 0, 0}, 6)
	got := RandomInactive(mask, 3, r)
	if len(got) != 3 {
		t.Fatalf("RandomInactive returned %d indices, want 3", len(got))
	}
	for _, i := range got {
		if mask.Data[i] != 0 {
			t.Fatalf("RandomInactive selected active index %d", i)
		}
	}
}

func TestRandomInactiveExhausted(t *testing.T) {
	r := rng.New(6)
	mask := tensor.FromSlice([]float32{1, 1, 0}, 3)
	got := RandomInactive(mask, 10, r)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("RandomInactive = %v, want [2]", got)
	}
}

func TestMaskFromKeep(t *testing.T) {
	m := MaskFromKeep([]int{2, 2}, []int{0, 3})
	if m.Data[0] != 1 || m.Data[3] != 1 || m.Data[1] != 0 || m.Data[2] != 0 {
		t.Fatalf("MaskFromKeep = %v", m.Data)
	}
}

func TestCSRRoundTrip(t *testing.T) {
	r := rng.New(7)
	w := tensor.New(6, 9)
	for i := range w.Data {
		if r.Bernoulli(0.3) {
			w.Data[i] = r.NormFloat32()
		}
	}
	csr := EncodeCSR(w)
	back := csr.Decode()
	for i := range w.Data {
		if w.Data[i] != back.Data[i] {
			t.Fatalf("CSR round-trip mismatch at %d", i)
		}
	}
	if csr.NNZ() != w.CountNonZero() {
		t.Fatalf("NNZ = %d, want %d", csr.NNZ(), w.CountNonZero())
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		rows, cols := r.Intn(10)+1, r.Intn(10)+1
		w := tensor.New(rows, cols)
		for i := range w.Data {
			if r.Bernoulli(0.4) {
				w.Data[i] = r.NormFloat32()
			}
		}
		back := EncodeCSR(w).Decode()
		for i := range w.Data {
			if w.Data[i] != back.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSREmptyMatrix(t *testing.T) {
	w := tensor.New(3, 4)
	csr := EncodeCSR(w)
	if csr.NNZ() != 0 {
		t.Fatalf("empty NNZ = %d", csr.NNZ())
	}
	back := csr.Decode()
	if back.CountNonZero() != 0 {
		t.Fatal("empty decode has nonzeros")
	}
}

func TestCSRMemoryBits(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 0, 0, 2}, 2, 2)
	csr := EncodeCSR(w)
	// 2 nnz × (8+16) bits + 3 row pointers × 16 bits = 48 + 48 = 96.
	if got := csr.MemoryBits(8, 16); got != 96 {
		t.Fatalf("MemoryBits = %d, want 96", got)
	}
}

func TestTrainingFootprintMonotonicInSparsity(t *testing.T) {
	const n = 1_000_000
	prev := math.Inf(1)
	for _, theta := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
		f := TrainingFootprintBits(n, theta, 5, TrainingBits, DefaultIndexBits)
		if f >= prev {
			t.Fatalf("footprint not decreasing at θ=%v: %v >= %v", theta, f, prev)
		}
		prev = f
	}
}

func TestTrainingFootprintFormula(t *testing.T) {
	// θ=0.9, N=1000, t=5, bw=32, bidx=16:
	// 0.1 × (6×1000×32 + 1000×16) = 0.1 × 208000 = 20800.
	got := TrainingFootprintBits(1000, 0.9, 5, 32, 16)
	if math.Abs(got-20800) > 1e-9 {
		t.Fatalf("footprint = %v, want 20800", got)
	}
}

func TestTrainingFootprintExactAddsRowPointers(t *testing.T) {
	base := TrainingFootprintBits(1000, 0.9, 5, 32, 16)
	exact := TrainingFootprintExactBits(1000, []int{8, 16}, 0.9, 5, 32, 16)
	want := base + float64(9+17)*16
	if math.Abs(exact-want) > 1e-9 {
		t.Fatalf("exact footprint = %v, want %v", exact, want)
	}
}

func TestInferenceFootprintPlatforms(t *testing.T) {
	// Higher-precision platforms cost more at the same sparsity.
	n := 100000
	loihi := InferenceFootprintBits(n, 0.95, 8, 16)
	hicann := InferenceFootprintBits(n, 0.95, 4, 16)
	fpga := InferenceFootprintBits(n, 0.95, 16, 16)
	if !(hicann < loihi && loihi < fpga) {
		t.Fatalf("platform ordering violated: %v %v %v", hicann, loihi, fpga)
	}
}

func TestSparseBeatsDenseAtHighSparsity(t *testing.T) {
	// The crossover the paper's Section III-D implies: at θ=0.99 a sparse
	// FP32+index model is far below the dense footprint; at θ=0 the index
	// overhead makes it worse.
	n := 1 << 20
	dense := DenseFootprintBits(n, 32)
	sparse99 := InferenceFootprintBits(n, 0.99, 32, 16)
	sparse0 := InferenceFootprintBits(n, 0, 32, 16)
	if sparse99 >= dense {
		t.Fatalf("θ=0.99 sparse (%v) not below dense (%v)", sparse99, dense)
	}
	if sparse0 <= dense {
		t.Fatalf("θ=0 sparse (%v) should exceed dense (%v) due to indices", sparse0, dense)
	}
}

func TestBitsToMiB(t *testing.T) {
	if got := BitsToMiB(8 * 1024 * 1024); got != 1 {
		t.Fatalf("BitsToMiB = %v, want 1", got)
	}
}
