package main

import (
	"math"
	"testing"
)

// The kernel runs between requests and around boots: an allocation would
// leave garbage for the collector to clear while the server is measured.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(5, func() { k.measure() }); n != 0 {
		t.Errorf("measure allocates %v times per run", n)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// The same work at half the speed takes twice as long, in both the
	// time and the kernel's time, and reads the same.
	fast := atReferenceSpeed(10, refNominalMS)
	slow := atReferenceSpeed(20, 2*refNominalMS)
	if fast != 10 || math.Abs(slow-fast) > 1e-12 {
		t.Errorf("10 ms at reference speed reads %v, 20 ms at half speed %v", fast, slow)
	}
}
