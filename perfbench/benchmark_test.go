package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, units and directions, in order.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v,\nbenchmark reports %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v,\nbenchmark reports %v", doc.PerLayer, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartiles([]float64{16, 1, 8, 2, 4}), [3]float64{1.5, 4, 12}; got != want {
		t.Errorf("quartiles(1,2,4,8,16) = %v, want %v", got, want)
	}
}
