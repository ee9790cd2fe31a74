package obs

import (
	"strings"
	"testing"
)

// TestInfoMetric pins the *_info idiom: SetInfo registers a constant-1
// gauge whose labels carry identity, rendered with sorted keys in the
// Prometheus exposition, and replaced wholesale on re-set (a hot swap
// updates the generation label, never appends a second sample).
func TestInfoMetric(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("mvpar_build_info", map[string]string{
		"version":    "v1.2.3",
		"generation": "1",
		"go_version": "go1.24",
	})

	wantLine := `mvpar_build_info{generation="1",go_version="go1.24",version="v1.2.3"} 1`

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mvpar_build_info gauge",
		wantLine,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("info exposition fails conformance: %v\n%s", err, out)
	}

	// Re-set replaces, never duplicates.
	r.SetInfo("mvpar_build_info", map[string]string{"generation": "2"})
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if strings.Contains(out, `generation="1"`) {
		t.Fatalf("stale info labels survived a re-set:\n%s", out)
	}
	if got := strings.Count(out, "mvpar_build_info{"); got != 1 {
		t.Fatalf("info metric has %d samples, want 1:\n%s", got, out)
	}

	if pairs := r.Info("mvpar_build_info"); len(pairs) != 1 || pairs[0].Key != "generation" || pairs[0].Value != "2" {
		t.Fatalf("Info = %+v", pairs)
	}
	if pairs := r.Info("absent"); pairs != nil {
		t.Fatalf("Info(absent) = %+v, want nil", pairs)
	}
}
