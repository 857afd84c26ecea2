package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics the
// result line carries.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != layerUnit(m.Name) {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark reports %q", m.Name, m.Unit, layerUnit(m.Name))
		}
	}
	if !reflect.DeepEqual(e2e, e2eNames) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, e2eNames)
	}
	if !reflect.DeepEqual(layers, layerNames) {
		t.Errorf("per_layer %v, benchmark reports %v", layers, layerNames)
	}
	var names []string
	for _, wl := range b.Workloads {
		names = append(names, wl.Name)
	}
	if want := []string{"fig9", "dense-nodmr", "warpd-mix"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
}

// A traced campaign run reports 0 only for the serving tier's counts;
// any other per-layer metric it fails to measure fails the report.
func TestReportRejectsUnmeasuredLayerMetric(t *testing.T) {
	w := &workloadRun{name: "fig9", trace: true, tracer: newTracer(),
		metrics: map[string]metric{}, infos: map[string]metric{}}
	serving := map[string]bool{}
	for _, n := range servingCounts {
		serving[n] = true
	}
	for _, n := range layerNames {
		if !serving[n] && n != "store.put_ms_p50" {
			w.layer(n, 1, 1)
		}
	}
	err := report(w)
	if err == nil || !strings.Contains(err.Error(), "store.put_ms_p50") {
		t.Fatalf("report = %v, want an error naming store.put_ms_p50", err)
	}
}
