package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raha"
)

func TestLoadTopologyBuiltins(t *testing.T) {
	for _, name := range []string{"smallwan", "b4", "uninett2010", "cogentco", "africa", "figure1"} {
		top, err := loadTopology(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if top.NumNodes() == 0 {
			t.Fatalf("%s: empty topology", name)
		}
	}
}

func TestLoadTopologyGMLFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.gml")
	src := `graph [ node [ id 0 label "a" ] node [ id 1 label "b" ] edge [ source 0 target 1 ] ]`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	top, err := loadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumLAGs() != 1 {
		t.Fatalf("lags = %d", top.NumLAGs())
	}
	// Probabilities must be assigned so threshold analyses work.
	for _, l := range top.LAGs() {
		for _, ln := range l.Links {
			if ln.FailProb <= 0 || ln.FailProb >= 1 {
				t.Fatalf("prob = %g", ln.FailProb)
			}
		}
	}
	if _, err := loadTopology("no-such-topology"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestCandidateLAGsHelper(t *testing.T) {
	top := raha.Figure1() // K4 minus B-C
	cands := candidateLAGs(top, 10)
	if len(cands) != 1 {
		t.Fatalf("Figure1 has exactly one absent pair, got %d", len(cands))
	}
}

func TestExpSafe(t *testing.T) {
	if got := expSafe(-1e9); got <= 0 {
		t.Fatalf("expSafe underflowed to %g", got)
	}
	if got := expSafe(0); got != 1 {
		t.Fatalf("expSafe(0) = %g", got)
	}
}

// TestAlertRaisedRunsTeardown: a raised alert hands errAlertRaised back to
// main instead of exiting on the spot, so its deferred teardown still closes
// the trace (and would report a trace error). Tolerance 0 raises on any
// degradation, and the default smallwan instance has one at peak demand.
func TestAlertRaisedRunsTeardown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alert.jsonl")
	err := alert(context.Background(), []string{
		"-tolerance", "0", "-slack", "-1", "-workers", "1", "-q", "-progress=false", "-trace", path,
	})
	if !errors.Is(err, errAlertRaised) {
		t.Fatalf("alert returned %v, want errAlertRaised", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last struct {
		Layer string `json:"layer"`
		Ev    string `json:"ev"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last trace line %q: %v", lines[len(lines)-1], err)
	}
	if last.Layer != "metaopt" || last.Ev != "analysis_end" {
		t.Fatalf("closed trace ends with %s/%s, want metaopt/analysis_end", last.Layer, last.Ev)
	}
}

// TestAlertAllRejectsSingleAnalysisFlags: alert -all reads none of the
// single-analysis flags, so one set explicitly is refused with the sweep's
// own spelling instead of being silently ignored. -builtins=false leaves the
// sweep no topology, so a flag that got past the check fails differently.
func TestAlertAllRejectsSingleAnalysisFlags(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-topology=b4", "-zoo-dir"},
		{"-pairs=3", "-grid 'd="},
		{"-slack=0.2", "-grid 'd="},
		{"-primary=3", "2 primary"},
		{"-backup=2", "1 backup"},
		{"-threshold=1e-3", "-grid 'k=…;p=…'"},
		{"-k=0", "-grid 'k=…;p=…'"},
		{"-budget=5s", "-budget-per-topo"},
	} {
		err := alert(context.Background(), []string{"-all", "-builtins=false", "-q", "-progress=false", tc.flag})
		if err == nil || !strings.Contains(err.Error(), "alert -all does not read") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("alert -all %s: got %v, want a refusal naming %q", tc.flag, err, tc.want)
		}
	}
	err := alert(context.Background(), []string{"-all", "-builtins=false", "-q", "-progress=false", "-workers=1", "-seed=2", "-ce"})
	if err == nil || !strings.Contains(err.Error(), "no topologies selected") {
		t.Fatalf("alert -all with only sweep-read flags: got %v, want the empty-fleet error", err)
	}
}
