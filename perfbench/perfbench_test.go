package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny shrinks a workload to a smoke-test scale factor.
func tiny(name string) workload {
	w := workloads[name]
	w.sf = 0.005
	return w
}

func smokeConfig(t *testing.T, name string) config {
	return config{w: tiny(name), seed: 7, seconds: 1, traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
}

// TestRefreshOracleIgnoresShadowRows: every refresh read's oracle over
// the loaded heap (live plus shadow rows) equals the oracle over the live
// rows alone, so shadow churn can never change a correct answer.
func TestRefreshOracleIgnoresShadowRows(t *testing.T) {
	oracles := func(w workload) []*request {
		e, err := setUp(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		defer e.tearDown()
		rs, err := buildRequests(e, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		return rs.all()
	}
	w := tiny("refresh")
	with := oracles(w)
	w.shadowFrac = 0
	without := oracles(w)
	if len(with) != len(without) || len(with) == 0 {
		t.Fatalf("%d requests with shadow rows, %d without", len(with), len(without))
	}
	for i, a := range with {
		b := without[i]
		if a.kind != b.kind || !bytes.Equal(a.body, b.body) {
			t.Fatalf("request %d: %s %s vs %s %s", i, a.kind, a.body, b.kind, b.body)
		}
		if !bytes.Equal(a.want, b.want) || a.rows != b.rows || a.rev != b.rev {
			t.Errorf("%s %s: oracle with shadow rows %s (%d rows, %v) differs from without %s (%d rows, %v)",
				a.kind, a.body, a.want, a.rows, a.rev, b.want, b.rows, b.rev)
		}
	}
}

// TestCorruptedOracleFailsRun: the correctness checks can fail — a run
// against a deliberately wrong oracle reports failures and is incorrect.
func TestCorruptedOracleFailsRun(t *testing.T) {
	for _, name := range []string{"dashboard", "window_scan"} {
		cfg := smokeConfig(t, name)
		cfg.corrupt = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: corrupted oracle gave correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestSmoke runs every workload at a tiny scale factor, untraced and
// traced, and checks the result line carries exactly the registered
// metrics.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, name)
			cfg.trace = traced
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written: %v", name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, traced, d.name, m)
				}
			}
			if !traced {
				for _, k := range []string{"setup_s", "read_p50_ms", "stream_p50_ms", "write_p50_ms", "space_amp", "mem_peak_mb"} {
					if res.Metrics[k].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, k, res.Metrics[k].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// registry and workload table in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q unknown or without a why", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, d)
		}
	}
}
