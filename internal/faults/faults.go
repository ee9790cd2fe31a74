// Package faults is the pipeline's fault-isolation layer. It provides a
// typed error taxonomy (StageError: which program failed, in which
// pipeline stage, and why), panic-to-error recovery boundaries so a bug
// in tensor/graph/nn encoding kills one program instead of the process,
// and a Quarantine report that collects per-program failures while a
// corpus build continues with the healthy remainder.
//
// Every captured failure increments mvpar_errors_total; every program
// entering quarantine increments mvpar_quarantined_programs_total.
package faults

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"mvpar/internal/obs"
)

// Pipeline stage names used in StageError.Stage. They follow the order of
// the ingestion pipeline; Stage accepts arbitrary strings, these are the
// canonical ones.
const (
	StageParse   = "parse"
	StageLower   = "lower"
	StageProfile = "profile"
	StageEncode  = "encode"
	StageTrain   = "train"
)

// StageError records the failure of one program in one pipeline stage.
type StageError struct {
	Program string
	Stage   string
	Err     error
}

// Error implements error.
func (e *StageError) Error() string {
	return fmt.Sprintf("%s: %s: %v", e.Program, e.Stage, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// PanicError is a recovered panic converted into an error by Capture.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes a panicked error value to errors.Is/As, so a nested
// boundary that re-panicked a *StageError (or any error) keeps its
// attribution visible through the capture: errors.As(err, &se) works on
// the *PanicError a replica goroutine's Capture produced.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Capture runs fn and converts a panic into a *PanicError, so one
// malformed input cannot take down the whole process. Runtime stack
// exhaustion and out-of-memory are not recoverable and still abort.
func Capture(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Stage runs fn inside a Capture boundary and wraps any failure (error or
// panic) as a *StageError for program/stage, incrementing
// mvpar_errors_total. A nil return means the stage succeeded.
func Stage(program, stage string, fn func() error) error {
	err := Capture(fn)
	if err == nil {
		return nil
	}
	obs.GetCounter("mvpar_errors_total").Inc()
	var pe *PanicError
	if errors.As(err, &pe) {
		obs.Error("faults.panic", "program", program, "stage", stage,
			"panic", fmt.Sprint(pe.Value))
	}
	var se *StageError
	if errors.As(err, &se) {
		// Already attributed (e.g. a nested boundary); keep the innermost
		// attribution rather than double-wrapping.
		return se
	}
	return &StageError{Program: program, Stage: stage, Err: err}
}

// Quarantine collects the per-program failures of one corpus build. The
// zero value is ready to use; methods are safe for concurrent use.
type Quarantine struct {
	mu       sync.Mutex
	failures []*StageError
	programs map[string]bool
}

// Add records one failure. The first failure of a program increments
// mvpar_quarantined_programs_total.
func (q *Quarantine) Add(e *StageError) {
	if e == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.programs == nil {
		q.programs = map[string]bool{}
	}
	if !q.programs[e.Program] {
		q.programs[e.Program] = true
		obs.GetCounter("mvpar_quarantined_programs_total").Inc()
	}
	q.failures = append(q.failures, e)
	obs.Warn("faults.quarantine", "program", e.Program, "stage", e.Stage,
		"err", e.Err.Error())
}

// Len returns the number of recorded failures.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.failures)
}

// Programs returns the sorted names of quarantined programs.
func (q *Quarantine) Programs() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var names []string
	for p := range q.programs {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// Has reports whether program has at least one recorded failure.
func (q *Quarantine) Has(program string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.programs[program]
}

// StageOf returns the stage of program's first recorded failure, or "".
func (q *Quarantine) StageOf(program string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, f := range q.failures {
		if f.Program == program {
			return f.Stage
		}
	}
	return ""
}

// String renders a human-readable report, one failure per line.
func (q *Quarantine) String() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.failures) == 0 {
		return "quarantine: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantine: %d failure(s) across %d program(s)\n",
		len(q.failures), len(q.programs))
	for _, f := range q.failures {
		fmt.Fprintf(&b, "  [%s] %s: %v\n", f.Stage, f.Program, f.Err)
	}
	return strings.TrimRight(b.String(), "\n")
}
