package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// memSample is one read of the runtime's allocation and GC counters.
type memSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, busyCPU                     float64
}

var memMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memMetricNames))
	for i, n := range memMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		busyCPU:      s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// memDelta accumulates runtime counter deltas over timed calls.
type memDelta struct {
	AllocMB  float64 `json:"alloc_mb"`
	Allocs   float64 `json:"allocs"`
	GCCycles float64 `json:"gc_cycles"`
	GCCPUs   float64 `json:"gc_cpu_s"`
	BusyCPUs float64 `json:"busy_cpu_s"`
}

func (d *memDelta) add(before, after memSample) {
	d.AllocMB += float64(after.allocBytes-before.allocBytes) / (1 << 20)
	d.Allocs += float64(after.allocObjects - before.allocObjects)
	d.GCCycles += float64(after.gcCycles - before.gcCycles)
	d.GCCPUs += after.gcCPU - before.gcCPU
	d.BusyCPUs += after.busyCPU - before.busyCPU
}

// gcCPUFrac is the share of the CPU time the process used (all
// classes but idle) that the collector took over the measured calls.
// The runtime refreshes its CPU classes at GC boundaries, so the figure
// is an estimate between them.
func (d memDelta) gcCPUFrac() float64 { return ratio(d.GCCPUs, d.BusyCPUs) }

// liveHeapMB forces a collection and returns the live heap it left.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
