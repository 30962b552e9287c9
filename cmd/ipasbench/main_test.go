package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"ipas/internal/core"
	"ipas/internal/svm"
)

// tinySize runs every workload through the benchmark's code in seconds.
var tinySize = size{
	remoteUnits:   2,
	remoteTrials:  8,
	remoteShards:  2,
	sectionUnits:  1,
	sectionMax:    2,
	workflowUnits: 1,
	workflow: core.Options{
		Samples: 60, Grid: svm.LogGrid(1, 1e3, 2, 1e-3, 1, 2), TopN: 1, EvalTrials: 10,
	},
	matchRemote: 4,
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloads runs every workload untraced and traced at a tiny size
// and checks what it prints against BENCHMARK.json, its correctness
// checks, and the self-time attribution of the traced run.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for i := range workloadList {
		w := &workloadList[i]
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			b := runWorkload(w, runOptions{workload: w.name, seed: 1, traced: traced, dir: t.TempDir()}, tinySize)
			res := b.result()
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: printed %s [%s], BENCHMARK.json declares [%s] (declared: %v)", w.name, traced, name, m.Unit, unit, ok)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: BENCHMARK.json metric %s not printed", w.name, traced, name)
				}
			}
			if !traced {
				if res.Metrics["norm_wall_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 || res.Metrics["norm_trials_per_s"].Value <= 0 {
					t.Errorf("%s: an end-to-end metric is not positive: %v", w.name, res.Metrics)
				}
				continue
			}
			self, wall := b.tr.layerSelf()
			var total float64
			for layer, s := range self {
				if s < 0 {
					t.Errorf("%s: layer %s self time %v < 0", w.name, layer, s)
				}
				total += s
			}
			if wall <= 0 || total > wall*(1+1e-9) {
				t.Errorf("%s: self times sum to %v s over %v s traced", w.name, total, wall)
			}
		}
	}
}

// TestSelfTimes checks the attribution on a hand-built trace: a unit
// (0-10) holding two concurrent trials (1-5 and 2-6), the first with a
// journal write (4-5) inside it, and a call observed from -1 to 1 that
// is clipped to the unit.
func TestSelfTimes(t *testing.T) {
	s := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start * 1e9, End: end * 1e9}
	}
	got := selfTimes([]span{s(1, 0, 0, 10), s(2, 1, 1, 5), s(3, 1, 2, 6), s(4, 2, 4, 5), s(5, 1, -1, 1)})
	// The clipped call alone 0-1; trial 2 alone 1-2; both trials 2-4;
	// trial 3 and the write share 4-5; trial 3 alone 5-6; unit alone
	// 6-10.
	want := []float64{4, 1 + 1, 1 + 0.5 + 1, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}
