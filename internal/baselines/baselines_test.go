package baselines_test

import (
	"math/rand"
	"testing"

	"mvpar/internal/baselines"
	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

// synthetic linearly separable vectors.
func separable(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.NormFloat64()}
		y := 0
		if x[0]+0.5*x[1] > 0.2 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// xor-ish dataset: not linearly separable, needs depth.
func xorData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		y := 0
		if (a > 0) != (b > 0) {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	return xs, ys
}

func vecAccuracy(predict func([]float64) int, xs [][]float64, ys []int) float64 {
	correct := 0
	for i, x := range xs {
		if predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func TestSVMLearnsSeparable(t *testing.T) {
	xs, ys := separable(300, 1)
	svm := baselines.NewSVM()
	svm.FitVectors(xs, ys)
	if acc := vecAccuracy(svm.PredictVector, xs, ys); acc < 0.95 {
		t.Fatalf("SVM accuracy = %v", acc)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	xs, ys := xorData(300, 2)
	tree := baselines.NewTree()
	tree.FitVectors(xs, ys)
	if acc := vecAccuracy(tree.PredictVector, xs, ys); acc < 0.95 {
		t.Fatalf("tree accuracy = %v", acc)
	}
}

// intervalData labels points inside a band on one feature positive — a
// task one stump cannot express but a boosted pair can. (XOR is the
// classic stump-boosting failure case: every stump is chance, so boosting
// halts; the tree test covers XOR.)
func intervalData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*4-2, rng.NormFloat64()
		y := 0
		if a > -0.5 && a < 0.7 {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	return xs, ys
}

func TestAdaBoostLearnsInterval(t *testing.T) {
	xs, ys := intervalData(300, 3)
	ab := baselines.NewAdaBoost()
	ab.FitVectors(xs, ys)
	if acc := vecAccuracy(ab.PredictVector, xs, ys); acc < 0.95 {
		t.Fatalf("adaboost accuracy = %v", acc)
	}
}

func TestAdaBoostBeatsSingleStump(t *testing.T) {
	xs, ys := intervalData(400, 4)
	single := baselines.AdaBoost{Rounds: 1}
	single.FitVectors(xs, ys)
	full := baselines.NewAdaBoost()
	full.FitVectors(xs, ys)
	a1 := vecAccuracy(single.PredictVector, xs, ys)
	aN := vecAccuracy(full.PredictVector, xs, ys)
	if aN <= a1 {
		t.Fatalf("boosting did not help: 1 round %v vs %d rounds %v", a1, full.Rounds, aN)
	}
}

func TestEmptyFitsDoNotPanic(t *testing.T) {
	baselines.NewSVM().FitVectors(nil, nil)
	baselines.NewAdaBoost().FitVectors(nil, nil)
	tree := baselines.NewTree()
	tree.FitVectors([][]float64{{1}}, []int{1})
	if tree.PredictVector([]float64{1}) != 1 {
		t.Fatal("single-sample tree wrong")
	}
}

// End-to-end: classic models and NCC trained on a tiny real dataset (with
// the NCC token streams added) should beat chance comfortably.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	apps := []bench.App{
		{Name: "mini-is", Suite: "NPB", Source: bench.Corpus()[3].Source},        // IS
		{Name: "mini-ep", Suite: "NPB", Source: bench.Corpus()[4].Source},        // EP
		{Name: "mini-jac", Suite: "PolyBench", Source: bench.Corpus()[9].Source}, // jacobi-2d
	}
	d, _, err := dataset.Build(apps, dataset.Config{
		Variants:   2,
		WalkParams: walks.Params{Length: 4, Gamma: 8},
		WalkLen:    4,
		EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AddBaselineInputs(apps, d.Records, dataset.Config{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestClassicModelsOnRealRecords(t *testing.T) {
	d := tinyDataset(t)
	recs := d.Records
	for _, m := range []baselines.Model{baselines.NewSVM(), baselines.NewTree(), baselines.NewAdaBoost()} {
		m.Fit(recs)
		if acc := baselines.Accuracy(m, recs); acc < 0.7 {
			t.Fatalf("%s train accuracy = %v", m.Name(), acc)
		}
	}
}

func TestNCCOnRealRecords(t *testing.T) {
	d := tinyDataset(t)
	m := baselines.NewNCC(d.Embedding)
	m.Epochs = 6
	m.Fit(d.Records)
	if acc := baselines.Accuracy(m, d.Records); acc < 0.6 {
		t.Fatalf("NCC train accuracy = %v", acc)
	}
}

func TestNCCPredictBeforeFit(t *testing.T) {
	d := tinyDataset(t)
	m := baselines.NewNCC(d.Embedding)
	if got := m.Predict(d.Records[0]); got != 0 {
		t.Fatalf("unfitted NCC predicted %d", got)
	}
}
