package main

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine-speed probe. The box the benchmark runs on is a small VM whose
// host now and then runs its vCPUs at about half speed for minutes on end:
// the same commit then serves two thirds of the requests with half as much
// CPU time again per request, and no statistic over a 20 s window can see
// through that. The probe can. Every 10 ms it times a fixed piece of work on
// its thread's CPU clock (≈ 1 % of one core): sixteen AND-popcount passes over
// two 32 KiB bit vectors, which is the server's own inner loop and slows the
// most when the core is shared, and 256 dependent loads from an 8 MiB table,
// which like the server's walks over filters and maps mostly wait for memory
// and slow the least. Time-based metrics are reported at the reference speed:
// a time is multiplied, a rate divided, by speed = probeRefNS ÷ (the probe's
// duration while the metric was taken). The raw values are reported beside
// them, and bench/README.md shows both across a slow spell.

// probeRefNS is what one probe takes on the box the baseline was taken on
// (Xeon 2.1 GHz: 46.5 µs of popcounts, 58 µs of loads) when the host leaves it
// alone. It only fixes the unit: on another machine every scaled number reads
// as if taken on that box.
const probeRefNS = 104_500

const (
	probeWords = 4096    // two 32 KiB bit vectors
	probeTable = 1 << 21 // 8 MiB of uint32, one random cycle through all of it
	probeLoads = 256
)

type probeSample struct {
	at time.Time
	ns float64
}

// probe times the fixed work every 10 ms on its own goroutine until stopped.
type probe struct {
	stopc   chan struct{}
	once    sync.Once
	done    sync.WaitGroup
	samples []probeSample // the goroutine's until stop returns
	acc     uint64        // keeps the work alive
}

// threadCPU is the CPU time the calling thread has used, in ns. The probe is
// timed on this clock, not the wall clock, so that waiting for a processor
// behind the benchmark's own goroutines does not count: only how fast the
// core executes does.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano())
}

func startProbe() *probe {
	p := &probe{stopc: make(chan struct{})}
	a, b := make([]uint64, probeWords), make([]uint64, probeWords)
	for i := range a {
		a[i], b[i] = uint64(i)*0x9E3779B97F4A7C15, ^uint64(i)*0xC2B2AE3D27D4EB4F
	}
	next := make([]uint32, probeTable)
	perm := rand.New(rand.NewSource(1)).Perm(probeTable)
	for i, at := range perm {
		next[at] = uint32(perm[(i+1)%probeTable])
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		runtime.LockOSThread() // the CPU clock is the thread's
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		pos := uint32(0)
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
			at, t0, acc := time.Now(), threadCPU(), 0
			for r := 0; r < 16; r++ {
				for i := range a {
					acc += bits.OnesCount64(a[i] & b[i])
				}
			}
			for i := 0; i < probeLoads; i++ {
				pos = next[pos]
			}
			p.samples = append(p.samples, probeSample{at, threadCPU() - t0})
			p.acc += uint64(acc) + uint64(pos)
		}
	}()
	return p
}

// stop ends the probe and returns its samples in time order; a second call
// returns them again.
func (p *probe) stop() []probeSample {
	p.once.Do(func() { close(p.stopc) })
	p.done.Wait()
	return p.samples
}

// speedBetween is the machine's speed over [from, to) relative to the
// reference: probeRefNS over the lower quartile of the probes that started in
// the interval. The lower quartile, because a probe is only ever lengthened —
// by an interrupt, by a cold cache after a migration — never shortened. An interval without a probe has speed 1.
func speedBetween(samples []probeSample, from, to time.Time) float64 {
	var ns []float64
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			ns = append(ns, s.ns)
		}
	}
	if len(ns) == 0 {
		return 1
	}
	return probeRefNS / percentile(ns, 0.25)
}
