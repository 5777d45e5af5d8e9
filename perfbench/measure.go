package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window measures one timed region of a run from outside the program:
// wall-clock, process CPU and the peak of the live heap.
type window struct {
	start   time.Time
	cpu0    time.Duration
	stop    chan struct{}
	done    sync.WaitGroup
	peak    uint64 // written by the sampler only until stop is closed
	samples []metrics.Sample
}

// windowStats is what a closed window measured.
type windowStats struct {
	wall, cpu   time.Duration
	peakHeapMiB float64
}

// heapSampleEvery is the heap sampler's period: fine enough to catch the
// heap's high-water mark between collections, coarse enough that the
// sampler's wake-ups stay below a thousandth of a core.
const heapSampleEvery = 5 * time.Millisecond

// openWindow starts measuring after a full garbage collection, so every
// window starts from the same heap whatever set-up left behind.
func openWindow() *window {
	runtime.GC()
	w := &window{
		stop:    make(chan struct{}),
		samples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	w.done.Add(1)
	go w.sampleHeap()
	w.cpu0 = processCPU()
	w.start = time.Now()
	return w
}

func (w *window) sampleHeap() {
	defer w.done.Done()
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		metrics.Read(w.samples)
		if v := w.samples[0].Value.Uint64(); v > w.peak {
			w.peak = v
		}
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
	}
}

func (w *window) close() windowStats {
	wall := time.Since(w.start)
	cpu := processCPU() - w.cpu0
	close(w.stop)
	w.done.Wait()
	return windowStats{wall: wall, cpu: cpu, peakHeapMiB: float64(w.peak) / (1 << 20)}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile of ds, sorting ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q*float64(len(ds)))) - 1
	if rank < 0 {
		rank = 0
	}
	return ds[rank]
}

// median returns the median of xs (the mean of the middle two for an even
// count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
