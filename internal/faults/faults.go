// Package faults is the pipeline's fault-isolation layer. It provides a
// typed error taxonomy (StageError: which program failed, in which
// pipeline stage, and why) and panic-to-error recovery boundaries, so a
// bug in tensor/graph/nn code fails one build or one request with the
// stage that failed instead of taking down the process.
//
// Every captured failure increments mvpar_errors_total.
package faults

import (
	"errors"
	"fmt"
	"runtime/debug"

	"mvpar/internal/obs"
)

// Pipeline stage names used in StageError.Stage. They follow the order of
// a served request; Stage accepts arbitrary strings, these are the
// canonical ones. StageAdmission is the wait for a worker slot.
const (
	StageAdmission = "admission"
	StageParse     = "parse"
	StageLower     = "lower"
	StageProfile   = "profile"
	StageEncode    = "encode"
	StageForward   = "forward"
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
