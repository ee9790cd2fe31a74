package faults_test

import (
	"errors"
	"fmt"
	"testing"

	"mvpar/internal/faults"
	"mvpar/internal/obs"
)

func TestStageWrapsErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := faults.Stage("prog", faults.StageParse, func() error { return sentinel })
	var se *faults.StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T (%v)", err, err)
	}
	if se.Program != "prog" || se.Stage != faults.StageParse {
		t.Fatalf("bad attribution: %+v", se)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is should reach the cause through Unwrap")
	}
	if faults.Stage("prog", faults.StageParse, func() error { return nil }) != nil {
		t.Fatalf("nil error must pass through as nil")
	}
}

func TestStageRecoversPanics(t *testing.T) {
	err := faults.Stage("prog", faults.StageEncode, func() error {
		panic("index out of range")
	})
	var se *faults.StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T", err)
	}
	var pe *faults.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected wrapped *PanicError, got %v", err)
	}
	if pe.Value != "index out of range" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not preserved: %+v", pe)
	}
}

func TestStageKeepsInnermostAttribution(t *testing.T) {
	inner := &faults.StageError{Program: "p", Stage: faults.StageProfile, Err: errors.New("x")}
	err := faults.Stage("p", faults.StageEncode, func() error { return inner })
	var se *faults.StageError
	if !errors.As(err, &se) || se.Stage != faults.StageProfile {
		t.Fatalf("nested boundary must not re-attribute: got %v", err)
	}
}

func TestErrorsTotalMetric(t *testing.T) {
	obs.Reset()
	for i := 0; i < 3; i++ {
		faults.Stage("p", faults.StageEncode, func() error { return fmt.Errorf("e%d", i) })
	}
	faults.Stage("p", faults.StageEncode, func() error { return nil })
	if n := obs.GetCounter("mvpar_errors_total").Value(); n != 3 {
		t.Fatalf("mvpar_errors_total = %d, want 3", n)
	}
}

// TestCaptureNestedGoroutinePanic is the replica-goroutine pattern the
// serving layer relies on: a worker goroutine captures its own panic
// into a *PanicError, the coordinating boundary re-panics it, and the
// outer Capture must surface the SAME fault — errors.As reaches both
// the inner PanicError and any StageError attribution through Unwrap,
// so the 500 body still names the original stage.
func TestCaptureNestedGoroutinePanic(t *testing.T) {
	inner := &faults.StageError{Program: "p", Stage: faults.StageEncode, Err: errors.New("tensor shape mismatch")}

	err := faults.Capture(func() error {
		ch := make(chan error, 1)
		go func() {
			ch <- faults.Capture(func() error {
				panic(inner)
			})
		}()
		if werr := <-ch; werr != nil {
			// The replica goroutine died; propagate its captured panic
			// across the boundary by re-panicking it.
			panic(werr)
		}
		return nil
	})
	if err == nil {
		t.Fatal("nested panic vanished")
	}
	var pe *faults.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T (%v)", err, err)
	}
	var se *faults.StageError
	if !errors.As(err, &se) || se.Stage != faults.StageEncode {
		t.Fatalf("inner stage attribution lost through nested captures: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("outer capture recorded no stack")
	}
}

// TestCaptureNonErrorPanicHasNoUnwrap pins PanicError.Unwrap's contract
// for plain panic values: no error inside means nothing to unwrap, and
// errors.As must not loop or misfire.
func TestCaptureNonErrorPanicHasNoUnwrap(t *testing.T) {
	err := faults.Capture(func() error { panic("plain string") })
	var pe *faults.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T", err)
	}
	if pe.Unwrap() != nil {
		t.Fatalf("Unwrap of non-error panic value = %v, want nil", pe.Unwrap())
	}
	var se *faults.StageError
	if errors.As(err, &se) {
		t.Fatal("errors.As fabricated a StageError from a string panic")
	}
}
