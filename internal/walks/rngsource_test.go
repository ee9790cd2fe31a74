package walks

import (
	"math"
	"math/rand"
	"testing"
)

// sameStreamSeeds returns the seeds the same-stream test covers: the
// edge cases of math/rand's seed reduction (0, ±1, multiples of 2^31-1
// and their neighbours, the int64 extremes) and 3,000 seeded random ones.
func sameStreamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k := int64(1); k <= 5; k++ {
		m := k * int32max
		seeds = append(seeds, m, -m, m+1, m-1, -m+1, -m-1)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestRNGSourceSameStream reseeds one rand.New(&rngSource{}) per seed,
// as dataset's encodeVariant does, and requires every draw to equal a fresh
// rand.New(rand.NewSource(seed)): Int63, Uint64, Intn, Float64 and
// Shuffle.
func TestRNGSourceSameStream(t *testing.T) {
	got := rand.New(&rngSource{})
	for _, seed := range sameStreamSeeds() {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for i := 0; i < 300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
			}
			n := 1 + i%17
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, g, w)
			}
			if g, w := got.Intn(1<<40+i), want.Intn(1<<40+i); g != w {
				t.Fatalf("seed %d draw %d: Intn(2^40+%d) %d, want %d", seed, i, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
			}
		}
		a, b := make([]int, 20), make([]int, 20)
		for i := range a {
			a[i], b[i] = i, i
		}
		got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: Shuffle %v, want %v", seed, a, b)
			}
		}
	}
}

// BenchmarkReseed times one reseed of a generator, the per-loop cost in
// dataset's encodeVariant: math/rand's source against rngSource.
func BenchmarkReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(1)},
		{"rngSource", &rngSource{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(c.src)
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i) * 0x5DEECE66D)
			}
		})
	}
}
