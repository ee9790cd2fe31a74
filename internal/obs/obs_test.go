package obs

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// resetLogger restores global logger state after a test.
func resetLogger(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetLevel(LevelOff)
		SetOutput(os.Stderr)
		SetTimestamps(true)
	})
	SetTimestamps(false)
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff,
		"silent": LevelOff, "": LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) succeeded, want error")
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	resetLogger(t)
	var buf strings.Builder
	SetOutput(&buf)

	SetLevel(LevelWarn)
	Debug("d1")
	Info("i1")
	Warn("w1", "k", 1)
	Error("e1")
	if got := buf.String(); got != "WARN w1 k=1\nERROR e1\n" {
		t.Errorf("warn-level output:\n%q", got)
	}

	buf.Reset()
	SetLevel(LevelOff)
	Error("suppressed")
	if buf.Len() != 0 {
		t.Errorf("LevelOff still logged: %q", buf.String())
	}

	buf.Reset()
	SetLevel(LevelDebug)
	Debug("d2", "path", "a b", "n", 3.5)
	if got := buf.String(); got != "DEBUG d2 path=\"a b\" n=3.5\n" {
		t.Errorf("debug output:\n%q", got)
	}
}

func TestEnabled(t *testing.T) {
	resetLogger(t)
	SetLevel(LevelInfo)
	if Enabled(LevelDebug) || !Enabled(LevelInfo) || !Enabled(LevelError) {
		t.Errorf("Enabled wrong at info: debug=%v info=%v error=%v",
			Enabled(LevelDebug), Enabled(LevelInfo), Enabled(LevelError))
	}
	SetLevel(LevelOff)
	if Enabled(LevelError) {
		t.Error("Enabled(error) true at LevelOff")
	}
}

// TestConcurrentMetrics hammers one counter, gauge and histogram from
// many goroutines; run with -race to check the synchronization.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("mvpar_test_ops_total").Inc()
				r.Gauge("mvpar_test_level").Set(float64(w))
				r.Histogram("mvpar_test_hist").Observe(float64(i%10) / 10)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("mvpar_test_ops_total").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	count, sum := r.Histogram("mvpar_test_hist").Snapshot()
	if count != workers*per {
		t.Errorf("histogram count = %d, want %d", count, workers*per)
	}
	if sum <= 0 {
		t.Errorf("histogram sum = %v", sum)
	}
	if g := r.Gauge("mvpar_test_level").Value(); g < 0 || g >= workers {
		t.Errorf("gauge = %v out of range", g)
	}
}
