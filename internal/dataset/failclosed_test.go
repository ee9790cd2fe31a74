package dataset_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/faults"
)

// poisonedCorpus returns the two healthy smallApps plus three poisoned
// programs: one that fails to parse, one that blows the interpreter step
// budget, and one (healthy by itself) that the encode fault hook will
// panic on.
func poisonedCorpus() []bench.App {
	apps := smallApps()
	apps = append(apps,
		bench.App{Name: "badparse", Suite: "NPB", Source: `
void main() { for (int i = 0; i < 8; i++ { } }
`},
		bench.App{Name: "runaway", Suite: "NPB", Source: `
float a[4];
void main() {
    for (int i = 0; i < 1000000; i++) {
        for (int j = 0; j < 1000; j++) { a[0] = a[0] + 1.0; }
    }
}
`},
		bench.App{Name: "boomenc", Suite: "NPB", Source: `
float a[8];
void main() {
    for (int i = 0; i < 8; i++) { a[i] = i; }
}
`},
	)
	return apps
}

// poisonedStages maps each poisoned program of poisonedCorpus to the
// stage its build must fail in.
var poisonedStages = map[string]string{
	"badparse": faults.StageParse,
	"runaway":  faults.StageProfile,
	"boomenc":  faults.StageEncode,
}

// buildPoisoned builds the healthy smallApps plus one poisoned program at
// the given worker count, with the encode fault hook armed for boomenc,
// and returns the build error after checking it is a *faults.StageError
// naming that program and its stage.
func buildPoisoned(t *testing.T, poisoned bench.App, jobs int) error {
	t.Helper()
	dataset.EncodeFaultHook = func(program string) {
		if program == "boomenc" {
			panic("injected encoder bug")
		}
	}
	defer func() { dataset.EncodeFaultHook = nil }()

	setJobs(t, jobs)
	cfg := smallConfig()
	cfg.MaxSteps = 200_000 // plenty for smallApps, far below runaway's need
	d, _, err := dataset.Build(append(smallApps(), poisoned), cfg)
	if err == nil {
		t.Fatalf("%s, jobs=%d: build succeeded with %d records", poisoned.Name, jobs, len(d.Records))
	}
	var se *faults.StageError
	if !errors.As(err, &se) || se.Program != poisoned.Name || se.Stage != poisonedStages[poisoned.Name] {
		t.Fatalf("%s, jobs=%d: error %v, want a %s stage error for %s",
			poisoned.Name, jobs, err, poisonedStages[poisoned.Name], poisoned.Name)
	}
	return err
}

// TestBuildPoisonedProgramNamesStage is the fail-closed check: a parse
// failure, a step-budget blowout and an encode-stage panic each fail the
// serial build of an otherwise healthy corpus with a *faults.StageError
// naming the poisoned program and its stage.
func TestBuildPoisonedProgramNamesStage(t *testing.T) {
	for _, poisoned := range poisonedCorpus()[len(smallApps()):] {
		buildPoisoned(t, poisoned, 1)
	}
}

// TestQuarantineStrictFailsFast checks a poisoned corpus fails fast on
// its first poisoned program.
func TestQuarantineStrictFailsFast(t *testing.T) {
	_, _, err := dataset.Build(poisonedCorpus(), smallConfig())
	if err == nil {
		t.Fatal("build of poisoned corpus succeeded")
	}
	if !strings.Contains(err.Error(), "badparse") {
		t.Fatalf("error does not name the failing program: %v", err)
	}
}

// TestQuarantineAllPoisoned checks that a corpus with no healthy program
// is an error naming the program and stage, not an empty dataset.
func TestQuarantineAllPoisoned(t *testing.T) {
	_, _, err := dataset.Build([]bench.App{{Name: "badparse", Suite: "NPB",
		Source: `void main() { for (int i = 0; i < 8; i++ { } }`}}, smallConfig())
	var se *faults.StageError
	if !errors.As(err, &se) || se.Program != "badparse" || se.Stage != faults.StageParse {
		t.Fatalf("all-poisoned build = %v, want a parse stage error for badparse", err)
	}
}

// TestQuarantineCancellationNotQuarantined checks that a cancelled
// context aborts a build with the cancellation, not a program's stage
// error.
func TestQuarantineCancellationNotQuarantined(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig()
	cfg.Ctx = ctx
	_, _, err := dataset.Build(smallApps(), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build = %v, want context.Canceled", err)
	}
}

// TestBuildDeadlineNamesStageAtEveryJobs checks that a deadline expiring
// while a runaway program profiles fails the build with that program's
// profile stage error, and with the same text at every worker count.
func TestBuildDeadlineNamesStageAtEveryJobs(t *testing.T) {
	apps := smallApps()[:1]
	for _, app := range poisonedCorpus() {
		if app.Name == "runaway" {
			apps = append(apps, app)
		}
	}
	var texts []string
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		setJobs(t, jobs)
		cfg := smallConfig()
		cfg.Ctx = ctx
		_, _, err := dataset.Build(apps, cfg)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "runaway: profile") {
			t.Fatalf("jobs=%d: build error %v, want the deadline named as runaway: profile", jobs, err)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Fatalf("build error differs by worker count:\n jobs=1: %s\n jobs=4: %s", texts[0], texts[1])
	}
}
