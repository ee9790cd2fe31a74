package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mvpar/internal/core"
)

func TestTrainOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := core.NewPipeline(tinyOptions())
	_, err := pl.TrainOnContext(ctx, tinyApps())
	if err == nil {
		t.Fatal("training under a cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
}

func TestTrainOnDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(5 * time.Millisecond) // deadline long gone before we start
	pl := core.NewPipeline(tinyOptions())
	_, err := pl.TrainOnContext(ctx, tinyApps())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to DeadlineExceeded: %v", err)
	}
}
