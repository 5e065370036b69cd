package trainer

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"boosthd/internal/infer"
	"boosthd/internal/serve"
)

// TestNonFiniteRowsRefusedOverHTTP: a row whose encoding would overflow
// (every feature 1e308) answers 400 on /predict, /predict_batch and
// /observe — base and tenant, single and batched — on both backends,
// and nothing it touched moves: the class memory stays bit-identical
// and no buffer takes the row. Unvalidated, such a predict answers 200
// with a label, and one observe poisons every learner.
func TestNonFiniteRowsRefusedOverHTTP(t *testing.T) {
	base, X, y := fixture(t, 240, 4)
	bad := make([]float64, len(X[0]))
	for k := range bad {
		bad[k] = 1e308
	}
	for _, backend := range []string{"float", "binary"} {
		t.Run(backend, func(t *testing.T) {
			m := base.Clone()
			eng := infer.NewEngine(m)
			if backend == "binary" {
				var err error
				if eng, err = infer.NewBinaryEngine(m); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := serve.NewServer(eng, serve.Config{MaxBatch: 8, MaxWait: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tr, err := New(srv, Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			reg, err := serve.NewTenantRegistry(srv, serve.TenantRegistryConfig{
				Store: serve.NewFileDeltaStore(t.TempDir()),
			})
			if err != nil {
				t.Fatal(err)
			}
			tt, err := NewTenantTrainer(reg, TenantConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerConfig{
				Trainer: tr, Tenants: reg, TenantTrainer: tt}))
			defer ts.Close()
			post := func(path, tenant string, body any) int {
				t.Helper()
				raw, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				if tenant != "" {
					req.Header.Set("X-Tenant", tenant)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			memory := func() []uint64 {
				var out []uint64
				for _, class := range m.ClassVectors() {
					for _, cv := range class {
						for _, v := range cv {
							out = append(out, math.Float64bits(v))
						}
					}
				}
				return out
			}
			before := memory()

			rows := [][]float64{X[0], bad}
			for _, tenant := range []string{"", "w1"} {
				for _, c := range []struct {
					path string
					body any
				}{
					{"/predict", map[string]any{"features": bad}},
					{"/predict_batch", map[string]any{"rows": rows}},
					{"/observe", map[string]any{"features": bad, "label": 0}},
					{"/observe", map[string]any{"rows": rows, "labels": []int{y[0], 0}}},
				} {
					if code := post(c.path, tenant, c.body); code != http.StatusBadRequest {
						t.Errorf("%s (tenant %q): %d, want 400", c.path, tenant, code)
					}
				}
			}

			after := memory()
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("class memory word %d moved through refused observes", i)
				}
			}
			if st := tr.Status(); st.Observed != 0 {
				t.Fatalf("trainer observed %d samples from refused requests", st.Observed)
			}
			if n := tt.BufferLen("w1"); n != 0 {
				t.Fatalf("tenant buffered %d samples from refused requests", n)
			}
			if code := post("/predict", "", map[string]any{"features": X[0]}); code != http.StatusOK {
				t.Fatalf("ordinary predict after refusals: %d", code)
			}
		})
	}
}
