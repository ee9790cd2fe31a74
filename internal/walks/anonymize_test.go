package walks

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// anonymize runs the sampler's anonymizer on walk with fresh buffers.
func anonymize(walk []int) []int {
	var a anonymizer
	return a.anonymize(walk)
}

func TestAnonymizeBasic(t *testing.T) {
	got := anonymize([]int{3, 9, 3, 7})
	if !reflect.DeepEqual(got, []int{0, 1, 0, 2}) {
		t.Fatalf("anonymize = %v", got)
	}
	if got := anonymize(nil); got != nil {
		t.Fatalf("anonymize(nil) = %v", got)
	}
}

func TestAnonymizeCompressesStutters(t *testing.T) {
	got := anonymize([]int{5, 5, 5, 2, 2, 5})
	if !reflect.DeepEqual(got, []int{0, 1, 0}) {
		t.Fatalf("anonymize stutter = %v", got)
	}
}

// Property: anonymization is invariant under any relabeling of node IDs.
func TestAnonymizeRelabelInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		walkLen := 1 + rng.Intn(12)
		w := make([]int, walkLen)
		for i := range w {
			w[i] = rng.Intn(n)
		}
		// Random permutation relabeling.
		perm := rng.Perm(n)
		relabeled := make([]int, walkLen)
		for i, v := range w {
			relabeled[i] = perm[v]
		}
		return reflect.DeepEqual(anonymize(w), anonymize(relabeled))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the anonymized walk starts at 0 and each new ID is exactly
// one greater than the running maximum.
func TestAnonymizeCanonicalForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]int, 1+rng.Intn(15))
		for i := range w {
			w[i] = rng.Intn(6)
		}
		aw := anonymize(w)
		if aw[0] != 0 {
			return false
		}
		maxSeen := 0
		for _, v := range aw {
			if v > maxSeen+1 {
				return false
			}
			if v > maxSeen {
				maxSeen = v
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
