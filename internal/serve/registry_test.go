package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRegistryValidation(t *testing.T) {
	good := &stubInference{}
	cases := []struct {
		name  string
		specs []ModelSpec
	}{
		{"empty set", nil},
		{"invalid name", []ModelSpec{{Name: "bad name!", Inference: good}}},
		{"empty name", []ModelSpec{{Name: "", Inference: good}}},
		{"duplicate", []ModelSpec{{Name: "a", Inference: good}, {Name: "a", Inference: good}}},
		{"no inference", []ModelSpec{{Name: "a"}}},
	}
	for _, tc := range cases {
		if _, err := newRegistry(tc.specs); err == nil {
			t.Errorf("%s: newRegistry accepted invalid specs", tc.name)
		}
	}
	reg, err := newRegistry([]ModelSpec{
		{Name: "zeta", Inference: good},
		{Name: "alpha", Inference: good},
		{Name: "beta", Inference: good},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.def != "zeta" {
		t.Fatalf("default = %q, want the first spec", reg.def)
	}
	var order []string
	for _, m := range reg.all() {
		order = append(order, m.name)
	}
	if strings.Join(order, ",") != "zeta,alpha,beta" {
		t.Fatalf("listing order = %v, want default first then alphabetical", order)
	}
	if _, err := reg.get("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("get(unknown) = %v, want ErrUnknownModel", err)
	}
	if m, err := reg.get(""); err != nil || m.name != "zeta" {
		t.Fatalf("get(\"\") = %v, %v — want the default model", m, err)
	}
}

// newMultiTestServer builds a two-model server ("default" and "alt",
// distinct stubs) and serves it via httptest.
func newMultiTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *stubInference, *stubInference) {
	t.Helper()
	def := &stubInference{}
	alt := &stubInference{}
	s, err := NewMulti([]ModelSpec{
		{Name: DefaultModel, Inference: def},
		{Name: "alt", Inference: alt},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, ts, def, alt
}

func TestMultiModelRouting(t *testing.T) {
	_, ts, def, alt := newMultiTestServer(t, Config{})

	// Unnamed request → default model.
	if code, _, e := postClassify(t, ts.URL, "p1", stubSource); code != http.StatusOK {
		t.Fatalf("default classify = %d (%+v)", code, e)
	}
	if def.calls.Load() != 1 || alt.calls.Load() != 0 {
		t.Fatalf("default/alt calls = %d/%d, want 1/0", def.calls.Load(), alt.calls.Load())
	}

	// ?model=alt routes to the alt stub.
	body := strings.NewReader(`{"name":"p2","source":"` + stubSource + `"}`)
	resp, err := http.Post(ts.URL+"/v1/classify?model=alt", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alt classify = %d", resp.StatusCode)
	}
	if def.calls.Load() != 1 || alt.calls.Load() != 1 {
		t.Fatalf("default/alt calls = %d/%d, want 1/1", def.calls.Load(), alt.calls.Load())
	}

	// The body's model field routes too (query param absent).
	body = strings.NewReader(`{"name":"p3","source":"` + stubSource + `","model":"alt"}`)
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || alt.calls.Load() != 2 {
		t.Fatalf("body-field routing: code %d, alt calls %d, want 200/2", resp.StatusCode, alt.calls.Load())
	}

	// Unknown model → 404.
	body = strings.NewReader(`{"name":"p4","source":"x"}`)
	resp, err = http.Post(ts.URL+"/v1/classify?model=ghost", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", resp.StatusCode)
	}
}

func TestModelsEndpointAndHealthz(t *testing.T) {
	_, ts, _, _ := newMultiTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models = %d", resp.StatusCode)
	}
	var listing struct {
		Default string        `json:"default"`
		Models  []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Default != DefaultModel || len(listing.Models) != 2 {
		t.Fatalf("listing = %+v, want default + alt", listing)
	}
	if !listing.Models[0].Default || listing.Models[0].Name != DefaultModel {
		t.Fatalf("first listing entry = %+v, want the default model", listing.Models[0])
	}
	for _, m := range listing.Models {
		if m.Generation != 1 || m.Precision != "float64" {
			t.Fatalf("model %q status = %+v, want generation 1 at float64", m.Name, m)
		}
		if m.Reloadable {
			t.Fatalf("model %q claims a loader it does not have", m.Name)
		}
	}

	// healthz keeps the default model's identity at the top level and
	// reports every model in the models array.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		OK         bool          `json:"ok"`
		Generation uint64        `json:"generation"`
		Models     []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Generation != 1 || len(health.Models) != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 per-model entries", health)
	}
}

func TestPerModelReload(t *testing.T) {
	def := &stubInference{}
	alt1 := &genStub{gen: 1}
	alt2 := &genStub{gen: 2}
	s, err := NewMulti([]ModelSpec{
		{Name: DefaultModel, Inference: def},
		{Name: "alt", Inference: alt1, Loader: func(context.Context) (Inference, error) {
			return alt2, nil
		}},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The default model has no loader → 501.
	resp, err := http.Post(ts.URL+"/v1/models/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("default reload = %d, want 501", resp.StatusCode)
	}

	// alt reloads independently; the default generation is untouched.
	resp, err = http.Post(ts.URL+"/v1/models/reload?model=alt", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Generation != 2 || rr.Model != "alt" {
		t.Fatalf("alt reload = %d %+v, want generation 2 of model alt", resp.StatusCode, rr)
	}
	if s.Generation() != 1 {
		t.Fatalf("default generation moved to %d on alt's reload", s.Generation())
	}
	m, _ := s.reg.get("alt")
	if m.gen.Load().id != 2 {
		t.Fatalf("alt generation = %d, want 2", m.gen.Load().id)
	}

	// Unknown model → 404.
	resp, err = http.Post(ts.URL+"/v1/models/reload?model=ghost", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown reload = %d, want 404", resp.StatusCode)
	}
}
