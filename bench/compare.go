package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures, as BENCHMARK.json declares it.
const runSeconds = 20

func manifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload(w))
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func printManifest(w io.Writer) error {
	b, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	workload, metric           string
	parentMedian, changeMedian float64
	parentSpread, changeSpread float64 // inter-quartile distance / |median|
	wins, losses               int     // over set-matched pairs, ties in neither
	state                      string  // same, improved, regressed, unresolved
}

// judge applies the rules of the choosing-metrics guide to one metric.
// parent and change hold one value per set, matched by index.
//
//   - regressed: the change's median is worse than the parent's by more than
//     bound × |parent median|;
//   - unresolved: either side's spread exceeds the bound, unless every run of
//     the change beats every run of the parent;
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's inter-quartile distance.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) verdict {
	sign := 1.0 // worse is positive
	if !lowerIsBetter {
		sign = -1
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	v := verdict{parentMedian: pmed, changeMedian: cmed, state: "same"}
	scale := math.Max(math.Abs(pmed), 1e-300)
	v.parentSpread, v.changeSpread = (pq3-pq1)/scale, (cq3-cq1)/math.Max(math.Abs(cmed), 1e-300)
	pairs := min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			v.wins++
		case d > 0:
			v.losses++
		}
	}
	worstChange, bestParent := math.Inf(-1), math.Inf(1)
	for _, x := range change {
		worstChange = math.Max(worstChange, sign*x)
	}
	for _, x := range parent {
		bestParent = math.Min(bestParent, sign*x)
	}
	shift := sign * (cmed - pmed)
	switch {
	case worstChange < bestParent:
		v.state = "improved"
	case v.parentSpread > bound || v.changeSpread > bound:
		v.state = "unresolved"
	case shift > bound*scale:
		v.state = "regressed"
	case pairs > 0 && float64(v.wins) >= 0.9*float64(pairs) && -shift > pq3-pq1:
		v.state = "improved"
	}
	return v
}

// compareRecords prints one row per workload and end-to-end metric and
// reports whether anything regressed or more analyses failed.
func compareRecords(w io.Writer, manifestPath, parentPath, changePath string) (regressed bool, err error) {
	var m manifestFile
	if err := readJSON(manifestPath, &m); err != nil {
		return false, err
	}
	var parent, change setsRecord
	if err := readJSON(parentPath, &parent); err != nil {
		return false, err
	}
	if err := readJSON(changePath, &change); err != nil {
		return false, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "parent %s (%s, %d cpu)  change %s (%s, %d cpu)\n",
		parent.Fingerprint.Commit, parent.Fingerprint.CPUModel, parent.Fingerprint.NProc,
		change.Fingerprint.Commit, change.Fingerprint.CPUModel, change.Fingerprint.NProc)
	fmt.Fprintf(&b, "%-16s %-18s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "parent", "change", "p-iqr", "c-iqr", "wins", "verdict")

	values := func(rec *setsRecord, workload, metric string) (vals []float64, failed int) {
		for _, r := range rec.Runs {
			if r.Workload == workload && !r.Traced {
				vals = append(vals, r.Metrics[metric].Value)
				failed += r.Failed
			}
		}
		return vals, failed
	}
	for _, wl := range m.Workloads {
		var pf, cf int
		for _, d := range m.EndToEnd {
			pv, f1 := values(&parent, wl.Name, d.Name)
			cv, f2 := values(&change, wl.Name, d.Name)
			pf, cf = f1, f2
			if len(pv) == 0 || len(cv) == 0 {
				return false, fmt.Errorf("%s %s: no runs to compare", wl.Name, d.Name)
			}
			v := judge(pv, cv, d.Better == "lower", *d.Bound)
			fmt.Fprintf(&b, "%-16s %-18s %12.6g %12.6g %7.1f%% %7.1f%% %3d/%-2d  %s\n", wl.Name, d.Name,
				v.parentMedian, v.changeMedian, 100*v.parentSpread, 100*v.changeSpread, v.wins, min(len(pv), len(cv)), v.state)
			regressed = regressed || v.state == "regressed"
		}
		if cf > pf {
			fmt.Fprintf(&b, "%-16s failed analyses rose from %d to %d\n", wl.Name, pf, cf)
			regressed = true
		}
	}
	_, err = io.WriteString(w, b.String())
	return regressed, err
}
