package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(body, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", e2e, endToEnd)
	}
	if !equalDefs(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program reports %v", layers, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quickRun runs one workload at quick scale.
func quickRun(t *testing.T, workload string, traced, plant bool) *result {
	t.Helper()
	b := &bench{workload: workload, seed: 3, window: 300 * time.Millisecond, sc: quickScale, dir: t.TempDir(), plant: plant}
	if traced {
		b.tr = newTracer()
	}
	res, err := b.run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQuickScaleEmitsEveryMetric runs every workload, untraced and traced,
// and checks each result carries every metric BENCHMARK.json names, with
// its unit, and passes the correctness gate. End-to-end metrics must be
// positive.
func TestQuickScaleEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			res := quickRun(t, w.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPlantedWrongAnswerFails corrupts one answer per workload before its
// check — a trial outcome, a replayed outcome, a cached body, a sweep
// aggregate — and requires the run to report it.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := quickRun(t, w, traced, true)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s traced=%v: planted wrong answer not caught (attempted=%d failed=%d)", w, traced, res.Attempted, res.Failed)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	job := tr.add("repro.job", "j", 0, at(0), at(100))
	trial := tr.add("core.trial", "j/0", job, at(10), at(60))
	tr.add("core.init", "j/0", trial, at(10), at(30))
	tr.add("core.rounds", "j/0", trial, at(25), at(60)) // overlaps init by 5 ms
	tr.add("core.trial", "j/1", job, at(50), at(90))    // overlaps trial 0 by 10 ms
	self := tr.selfTimes()
	for name, want := range map[string]float64{"repro.job": 0.020, "core.trial": 0.040, "core.init": 0.020, "core.rounds": 0.035} {
		if got := self[name].SelfS; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}
