package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := readSpec(t)
	ws, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %s, the code's is %s", i, s.Workloads[i].Name, w.name)
		}
	}
}

// checkMetrics fails unless got holds exactly the metrics of want, each
// under prefix and with its unit.
func checkMetrics(t *testing.T, got map[string]metric, prefix string, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[prefix+m.Name]
		if !ok {
			t.Errorf("no metric %s%s", prefix, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s%s is in %s, BENCHMARK.json says %s", prefix, m.Name, g.Unit, m.Unit)
		}
	}
	n := 0
	for name := range got {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	if n != len(want) {
		t.Errorf("%d metrics under %q, BENCHMARK.json names %d", n, prefix, len(want))
	}
}

// TestSmoke builds, trains and boots the real server, runs every workload
// for a second and then a traced tiny-uncached run. It checks that every
// answer passes the gate and that each run reports exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds, trains and boots mvpar")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	s := readSpec(t)
	all, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	o := options{root: root, work: t.TempDir(), seed: 1, warmup: time.Second, window: time.Second, boots: 3, verify: 64, inProcess: 20}
	ctx := context.Background()

	start := time.Now()
	var out bytes.Buffer
	res, err := run(ctx, o, all, &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("every workload took %v:\n%s", time.Since(start).Round(time.Millisecond), out.String())
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("gate failed: correct %v, %d of %d requests failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, w := range all {
		checkMetrics(t, res.Metrics, w.name+".", s.EndToEnd)
	}

	o.trace = true
	o.window = 2 * time.Second
	out.Reset()
	res, err = run(ctx, o, []*workload{mustWorkloads(t)["tiny-uncached"]}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed the gate:\n%s", out.String())
	}
	checkMetrics(t, res.Metrics, "", s.PerLayer)
}
