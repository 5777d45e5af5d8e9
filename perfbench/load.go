package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// inferFunc sends one sample image to a server and returns its reply.
type inferFunc func(ctx context.Context, img []float32) ([]float32, error)

// sample is one test image with the reply the serial engine gave for it.
type sample struct {
	img, want []float32
}

// failedLatency stands in for the latency of a request that failed: a
// failure counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// loadResult is what a load generator measured. latency runs from the
// request's due time (open loop) or send time (closed loop) to its reply;
// call from the Server.Infer call to its return; late from the due time to
// the send (open loop) or from a client's previous reply to its next send
// (closed loop).
type loadResult struct {
	latency, call, late []time.Duration
	sent, failed, wrong int64
	win                 windowStats
}

func (r *loadResult) add(o requestResult) {
	r.sent++
	switch {
	case o.err != nil:
		r.failed++
		r.latency = append(r.latency, failedLatency)
		return
	case !bitIdentical(o.got, o.want):
		r.wrong++
	}
	r.latency = append(r.latency, o.latency)
	r.call = append(r.call, o.call)
	r.late = append(r.late, o.late)
}

// served is the number of requests answered.
func (r *loadResult) served() int64 { return r.sent - r.failed }

type requestResult struct {
	got, want           []float32
	err                 error
	latency, call, late time.Duration
}

// closedLoop sends n seeded test images from clients goroutines, each
// sending its next only after the previous reply.
func closedLoop(infer inferFunc, samples []sample, clients int, seed uint64, n int) loadResult {
	results := make([][]requestResult, clients)
	var left atomic.Int64
	left.Store(int64(n))
	var wg sync.WaitGroup
	w := openWindow()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(c)))
			prev := time.Now()
			for left.Add(-1) >= 0 {
				s := samples[r.Intn(len(samples))]
				sent := time.Now()
				got, err := infer(context.Background(), s.img)
				done := time.Now()
				results[c] = append(results[c], requestResult{
					got: got, want: s.want, err: err,
					latency: done.Sub(sent), call: done.Sub(sent), late: sent.Sub(prev),
				})
				prev = done
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{win: w.close()}
	for _, rs := range results {
		for _, o := range rs {
			out.add(o)
		}
	}
	return out
}

// openLoop sends n seeded test images at a fixed rate, each on its own
// goroutine at its due time, whether or not earlier requests have returned.
func openLoop(infer inferFunc, samples []sample, rate float64, seed uint64, n int) loadResult {
	period := time.Duration(float64(time.Second) / rate)
	results := make([]requestResult, n)
	r := rand.New(rand.NewSource(int64(seed)))
	var wg sync.WaitGroup
	w := openWindow()
	for k := 0; k < n; k++ {
		due := w.start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s := samples[r.Intn(len(samples))]
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			got, err := infer(context.Background(), s.img)
			done := time.Now()
			results[k] = requestResult{
				got: got, want: s.want, err: err,
				latency: done.Sub(due), call: done.Sub(sent), late: sent.Sub(due),
			}
		}(k, due)
	}
	wg.Wait()
	out := loadResult{win: w.close()}
	for _, o := range results {
		out.add(o)
	}
	return out
}

// bitIdentical reports whether two replies agree bit for bit.
func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
