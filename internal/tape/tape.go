package tape

import (
	"runtime"
	"sync/atomic"

	"ndsnn/internal/sparse"
	"ndsnn/internal/tensor"
)

// CacheEvents is the tape's kill switch: when false every Push records a
// dense Rec, reproducing the pre-tape dense-cache behavior exactly. It is a
// variable so benchmarks can measure the dense baseline and tests can force
// either representation.
var CacheEvents = true

// cacheMaxRate is the spike occupancy above which Push keeps the dense
// representation even for binary inputs. Memory-wise events win almost up to
// full occupancy (4·nnz + 4·(rows+1) bytes vs 4·N dense), but the replay
// kernels that consume the pattern stop beating the dense SDDMM well before
// that — the same economics as the forward's EventMaxRate gate — and a dense
// record replays with zero decode work. 0.5 keeps hot caches on the path
// that backpropagates fastest while still halving their worst-case footprint
// ceiling.
const cacheMaxRate = 0.5

// Rec is one recorded per-timestep activation: either a dense tensor or the
// event pattern of a binary one, plus the original tensor shape so replay can
// reconstruct it. The zero Rec is invalid; Recs are produced by Stack pushes.
type Rec struct {
	dense *tensor.Tensor
	ev    *sparse.Events
	shape []int
	// metered is what this record charged the package meter: Bytes(), or 0
	// when the record aliases a tensor an adjacent record already charged
	// (direct encoding pushes the same input tensor once per timestep).
	metered int64
}

// IsEvents reports whether the record is event-encoded.
func (r Rec) IsEvents() bool { return r.ev != nil }

// Events returns the recorded event pattern (nil for dense records). The
// pattern is 2-D: one row per leading-dimension slice of the original tensor
// (batch sample), columns flattened from the remaining dimensions.
func (r Rec) Events() *sparse.Events { return r.ev }

// Shape returns the recorded tensor's original shape.
func (r Rec) Shape() []int { return r.shape }

// Dense returns the dense tensor of a dense record (nil for event records).
func (r Rec) Dense() *tensor.Tensor { return r.dense }

// Bytes returns the retained heap footprint of the record: the dense payload,
// or the event pattern's index arrays.
func (r Rec) Bytes() int64 {
	if r.dense != nil {
		return int64(r.dense.Size()) * 4
	}
	return int64(len(r.ev.ColIdx)+len(r.ev.RowPtr)) * 4
}

// Stack is a LIFO of per-timestep activation records — the tape one layer
// writes during the forward pass and replays (in reverse) during BPTT. The
// zero value is an empty stack. Push/Pop/Clear update the package memory
// meter; they are called from the layer goroutine (not from batch workers),
// matching the cache discipline of the previous dense stacks.
type Stack struct {
	recs []Rec
}

// Push records x, event-encoding it when CacheEvents is set, the tensor is
// binary ({0,1} valued) and its occupancy is at most cacheMaxRate; otherwise
// it records the tensor itself. The event pattern is extracted over the
// [Dim(0), Size/Dim(0)] flattening (one row per batch sample). The gate is
// checked with a scan before the pattern is allocated — rejected (analog or
// hot) pushes stop at the first disqualifying value and allocate nothing
// beyond the parallel scan's per-strip counters; on large tensors the scan
// fans out over the tensor worker pool (chunked counts, each strip bailing
// at the same occupancy limit — the accept/reject decision is identical to
// the serial scan's).
func (s *Stack) Push(x *tensor.Tensor) {
	if CacheEvents {
		limit := int(cacheMaxRate * float64(x.Size()))
		nnz, binary := scanBinary(x.Data, limit)
		if binary && nnz > limit {
			binary = false
		}
		if binary {
			rows := x.Dim(0)
			cols := x.Size() / rows
			if ev, ok := sparse.EncodeEvents(x.Reshape(rows, cols)); ok {
				s.push(Rec{ev: ev, shape: x.Shape()})
				return
			}
		}
	}
	s.PushDense(x)
}

// scanBinaryStripMin is the tensor size below which the Push gate scan stays
// on the calling goroutine.
const scanBinaryStripMin = 1 << 15

// scanBinary counts the non-zero entries of data and reports whether every
// entry is in {0,1} with at most `limit` non-zeros. Large tensors are
// scanned in parallel strips on the shared worker pool (one strip per
// GOMAXPROCS, counts merged — exact, so the result cannot depend on
// scheduling); each strip stops early at the first non-binary value or once
// its own count passes the limit (a strip's count bounds the total from
// below, so bailing is sound). A false result may carry a partial count;
// callers must only use nnz when binary is true.
func scanBinary(data []float32, limit int) (nnz int, binary bool) {
	strips := runtime.GOMAXPROCS(0)
	if len(data) < scanBinaryStripMin || strips <= 1 {
		return scanBinaryRange(data, limit)
	}
	counts := make([]int, strips)
	oks := make([]bool, strips)
	for s := range oks {
		oks[s] = true // strips the partition does not invoke are vacuously ok
	}
	tensor.ParallelForStriped(len(data), strips, func(strip, lo, hi int) {
		counts[strip], oks[strip] = scanBinaryRange(data[lo:hi], limit)
	})
	binary = true
	for s := 0; s < strips; s++ {
		nnz += counts[s]
		binary = binary && oks[s]
	}
	return nnz, binary
}

func scanBinaryRange(data []float32, limit int) (nnz int, binary bool) {
	for _, v := range data {
		if v == 0 {
			continue
		}
		if v != 1 || nnz >= limit {
			return nnz, false
		}
		nnz++
	}
	return nnz, true
}

// PushDense records x as-is, bypassing event encoding (used by the
// CacheEvents=false baseline and for inputs known to be analog). A tensor
// aliased by the immediately preceding record — direct encoding presents the
// same input at every timestep — is retained by reference but charged to the
// meter only once, so PeakBytes tracks actual heap, not record count.
func (s *Stack) PushDense(x *tensor.Tensor) {
	r := Rec{dense: x, shape: x.Shape()}
	if n := len(s.recs); n > 0 && s.recs[n-1].dense == x {
		r.metered = -1 // sentinel: charge nothing
	}
	s.push(r)
}

func (s *Stack) push(r Rec) {
	if r.metered < 0 {
		r.metered = 0
	} else {
		r.metered = r.Bytes()
	}
	s.recs = append(s.recs, r)
	meterGrow(r.metered)
}

// Pop removes and returns the most recent record. It panics on an empty
// stack, which indicates a Forward(train=false)/Backward pairing bug.
func (s *Stack) Pop() Rec {
	if len(s.recs) == 0 {
		panic("tape: Pop on empty stack (forgot train=true or too many Backward calls)")
	}
	r := s.recs[len(s.recs)-1]
	s.recs[len(s.recs)-1] = Rec{}
	s.recs = s.recs[:len(s.recs)-1]
	meterGrow(-r.metered)
	return r
}

// Len returns the number of retained records.
func (s *Stack) Len() int { return len(s.recs) }

// Clear drops every retained record (between-batch Reset), zeroing the
// vacated slots so the backing array does not pin the popped tensors.
func (s *Stack) Clear() {
	var n int64
	for i, r := range s.recs {
		n += r.metered
		s.recs[i] = Rec{}
	}
	meterGrow(-n)
	s.recs = s.recs[:0]
}

// The package meter tracks bytes currently retained by all live Stacks and
// the high-water mark since the last ResetPeak. Atomics because stacks on
// different goroutines (e.g. tests running networks concurrently) share it.
var meterCur, meterPeak atomic.Int64

func meterGrow(n int64) {
	cur := meterCur.Add(n)
	for {
		peak := meterPeak.Load()
		if cur <= peak || meterPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// CacheBytes returns the bytes currently retained across all tape stacks.
func CacheBytes() int64 { return meterCur.Load() }

// PeakBytes returns the high-water mark of CacheBytes since the last
// ResetPeak — the measured peak BPTT activation-cache memory.
func PeakBytes() int64 { return meterPeak.Load() }

// ResetPeak restarts peak tracking from the current retained size. Training
// loops call it at the start of each report window.
func ResetPeak() { meterPeak.Store(meterCur.Load()) }
