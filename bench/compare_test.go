package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
	}{
		{"same runs", steady, steady, true, "same"},
		{"5% slower inside a 10% bound", steady, scaled(1.05), true, "same"},
		{"20% slower", steady, scaled(1.20), true, "regressed"},
		{"20% faster", steady, scaled(0.80), true, "improved"},
		{"20% lower where higher is better", steady, scaled(0.80), false, "regressed"},
		{"spread wider than the bound", noisy, scaled(1.2), true, "unresolved"},
		{"wide spread, but every run beats every parent run", noisy, scaled(0.5), true, "improved"},
	} {
		if got := judge(c.parent, c.change, c.lower, 0.10).state; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		var rec setsRecord
		for set := 1; set <= 5; set++ {
			for _, w := range workloadNames() {
				run := runRecord{Workload: w, Set: set}
				run.Failed = failed
				run.Metrics = map[string]metricValue{}
				for _, d := range endToEnd {
					run.Metrics[d.Name] = metricValue{Value: 1 + float64(set)/1000, Unit: d.Unit}
				}
				run.Metrics["op_wall_s"] = metricValue{Value: wall + float64(set)/1000, Unit: "s"}
				rec.Runs = append(rec.Runs, run)
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	manifestPath := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(manifestPath, manifest()); err != nil {
		t.Fatal(err)
	}
	base := write("base.json", 1, 0)
	for _, c := range []struct {
		name      string
		change    string
		regressed bool
		mention   string
	}{
		{"same commit twice", write("same.json", 1, 0), false, "same"},
		{"slower", write("slow.json", 1.5, 0), true, "regressed"},
		{"more failures", write("failing.json", 1, 1), true, "failed analyses rose"},
	} {
		var out bytes.Buffer
		regressed, err := compareRecords(&out, manifestPath, base, c.change)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: regressed %v, output:\n%s", c.name, regressed, out.String())
		}
	}
}
