package main

import (
	"sort"
	"time"
)

// refKernel is a fixed piece of CPU work that the benchmark times while
// the server is idle, as a measure of how fast the machine runs at that
// moment. On a shared virtual machine the speed of a CPU changes with
// what the host runs beside it, by up to half, in phases of seconds. A
// time divided by the kernel's time measured alongside does not change
// with it. The kernel is the benchmark's own code, so a change to the
// program cannot move it. Its mix resembles the server's work: random
// reads and writes in a table the size of an L2 cache, map updates and a
// float sort. It allocates nothing once built.
type refKernel struct {
	table  []uint64
	counts map[uint64]uint64
	floats []float64
	sink   uint64
}

const (
	refTableSize = 1 << 14 // 128 KiB of uint64
	refSteps     = 100_000
	refKeys      = 1024
	// refEvery is how often the load driver times the kernel, between
	// requests.
	refEvery = 20 * time.Millisecond
	// refBootRuns is how many times the kernel runs before and after each
	// server boot.
	refBootRuns = 5
	// refNominalMS is the kernel's time on an idle core of the 2-vCPU VM
	// the bounds were calibrated on. Times scaled by refNominalMS over
	// the kernel's time measured alongside read as they would on that
	// core at full speed; see README.md.
	refNominalMS = 0.35
)

func newRefKernel() *refKernel {
	k := &refKernel{
		table:  make([]uint64, refTableSize),
		counts: make(map[uint64]uint64, refKeys),
		floats: make([]float64, 2000),
	}
	for key := uint64(0); key < refKeys; key++ {
		k.counts[key] = 0
	}
	return k
}

// measure runs the kernel once and returns how long it took, in ms.
func (k *refKernel) measure() float64 {
	start := time.Now()
	x := k.sink | 1
	for i := 0; i < refSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.table[x&(refTableSize-1)] += x
		if i&63 == 0 {
			k.counts[x&(refKeys-1)] += x
		}
	}
	for i := range k.floats {
		k.floats[i] = float64(k.table[i] % 1000)
	}
	sort.Float64s(k.floats)
	k.sink = x + uint64(k.floats[len(k.floats)/2])
	return ms(time.Since(start))
}

// medianOf runs the kernel n times and returns the median time, in ms.
func (k *refKernel) medianOf(n int) float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = k.measure()
	}
	return median(times)
}

// atReferenceSpeed scales a time measured while the kernel took refMS to
// the time it would take at refNominalMS.
func atReferenceSpeed(t, refMS float64) float64 { return t * refNominalMS / refMS }
