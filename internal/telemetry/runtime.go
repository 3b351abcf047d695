package telemetry

import (
	"runtime"
	"sync"
	"time"

	"adskip/internal/obs"
)

// RuntimeSample is one point-in-time reading of the Go runtime: goroutine
// count, heap state, and cumulative GC work. Samples are cheap (one
// runtime.ReadMemStats call) and taken on a fixed interval by a Collector.
type RuntimeSample struct {
	Time          time.Time `json:"time"`
	Goroutines    int       `json:"goroutines"`
	HeapAlloc     uint64    `json:"heap_alloc_bytes"`
	HeapSys       uint64    `json:"heap_sys_bytes"`
	HeapObjects   uint64    `json:"heap_objects"`
	NumGC         uint32    `json:"num_gc"`
	PauseTotalNs  uint64    `json:"gc_pause_total_ns"`
	GCCPUFraction float64   `json:"gc_cpu_fraction"`
}

// DefaultSampleInterval is the collector's sampling period when none is
// given; DefaultSampleCapacity the ring size (about 21 minutes of history
// at the default interval).
const (
	DefaultSampleInterval = 5 * time.Second
	DefaultSampleCapacity = 256
)

// Collector samples runtime statistics on a fixed interval into a bounded
// ring buffer. It owns one background goroutine; Stop shuts it down and
// waits for it to exit, so a closed Collector leaks nothing.
type Collector struct {
	interval time.Duration

	mu   sync.Mutex
	ring *obs.Ring[RuntimeSample]

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewCollector starts a collector sampling every interval into a ring of
// capacity samples (defaults apply when either is <= 0). The first sample
// is taken immediately so /runtime is never empty.
func NewCollector(interval time.Duration, capacity int) *Collector {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	c := &Collector{
		interval: interval,
		ring:     obs.NewRing[RuntimeSample](capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.sample()
	go c.run()
	return c
}

// run is the collector goroutine: sample, sleep, repeat until stopped.
func (c *Collector) run() {
	defer close(c.done)
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.sample()
		case <-c.stop:
			return
		}
	}
}

// sample appends one reading to the ring.
func (c *Collector) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSample{
		Time:          time.Now(),
		Goroutines:    runtime.NumGoroutine(),
		HeapAlloc:     ms.HeapAlloc,
		HeapSys:       ms.HeapSys,
		HeapObjects:   ms.HeapObjects,
		NumGC:         ms.NumGC,
		PauseTotalNs:  ms.PauseTotalNs,
		GCCPUFraction: ms.GCCPUFraction,
	}
	c.mu.Lock()
	*c.ring.Push() = s
	c.mu.Unlock()
}

// Snapshot returns the retained samples oldest-first.
func (c *Collector) Snapshot() []RuntimeSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.AppendTo(make([]RuntimeSample, 0, c.ring.Len()))
}

// Stop shuts the sampling goroutine down and waits for it to exit.
// Idempotent and safe to call concurrently.
func (c *Collector) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}
