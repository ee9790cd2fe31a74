package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// GateConfig tolerances for the loadgate comparison. Load numbers are
// far noisier than allocation counts, so the defaults are generous —
// the gate catches collapses (a lock added to the hot path, a stage
// gone quadratic), not single-digit-percent jitter.
type GateConfig struct {
	// MaxRPSDrop fails when current RPS falls below baseline by more
	// than this fraction; default 0.30.
	MaxRPSDrop float64
	// MaxP99Rise fails when current p99 exceeds baseline by more than
	// this fraction; default 0.50. Skipped when either p99 is 0 (no
	// recorded latencies).
	MaxP99Rise float64
	// MinRequests refuses to judge runs that recorded fewer successful
	// requests than this (too little signal); default 10.
	MinRequests int64
}

func (g GateConfig) withDefaults() GateConfig {
	if g.MaxRPSDrop <= 0 {
		g.MaxRPSDrop = 0.30
	}
	if g.MaxP99Rise <= 0 {
		g.MaxP99Rise = 0.50
	}
	if g.MinRequests <= 0 {
		g.MinRequests = 10
	}
	return g
}

// Gate compares a run against the checked-in baseline and returns the
// violated constraints, empty when the run passes. An error means the
// comparison itself is impossible (not enough signal), distinct from a
// regression.
func Gate(baseline, current Report, cfg GateConfig) ([]string, error) {
	cfg = cfg.withDefaults()
	if current.Success < cfg.MinRequests {
		return nil, fmt.Errorf("loadgen: gate needs ≥%d successful requests, run recorded %d",
			cfg.MinRequests, current.Success)
	}
	var violations []string
	if baseline.RPS > 0 {
		floor := baseline.RPS * (1 - cfg.MaxRPSDrop)
		if current.RPS < floor {
			violations = append(violations, fmt.Sprintf(
				"RPS regression: %.1f < %.1f (baseline %.1f − %.0f%% tolerance)",
				current.RPS, floor, baseline.RPS, cfg.MaxRPSDrop*100))
		}
	}
	if baseline.LatencyP99Ms > 0 && current.LatencyP99Ms > 0 {
		ceil := baseline.LatencyP99Ms * (1 + cfg.MaxP99Rise)
		if current.LatencyP99Ms > ceil {
			violations = append(violations, fmt.Sprintf(
				"p99 regression: %.2fms > %.2fms (baseline %.2fms + %.0f%% tolerance)",
				current.LatencyP99Ms, ceil, baseline.LatencyP99Ms, cfg.MaxP99Rise*100))
		}
	}
	return violations, nil
}

// ReadReport loads a Report JSON file (the checked-in baseline or a
// prior run's -out).
func ReadReport(path string) (Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return r, nil
}
