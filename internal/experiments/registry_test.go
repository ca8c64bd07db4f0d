package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestRegistry: every CSV cmd/raha-experiments writes has a unique name, and every
// row an entry formats has as many cells as its header.
func TestRegistry(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
		if want := strings.Count(e.header, ",") + 1; e.width != want {
			t.Errorf("%s: rows have %d cells, header %q has %d", e.Name, e.width, e.header, want)
		}
	}
	const want = "figure1 figure2 figure3 figure5 figure6 figure7 figure8 figure9 figure10 figure11 figure12 figure12b " +
		"figure13 figure14 figure15 figure16 figure17 figure18 table3 table4 mlu maxmin fixed-runtime"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("registry\n got %s\nwant %s", got, want)
	}
}

// TestRegistryClockFree runs the two entries whose analyses no clock bounds
// end to end through the registry, claim checks included.
func TestRegistryClockFree(t *testing.T) {
	sel, err := Select("figure1,figure2")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sel {
		tab, err := e.Run(0, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if tab.Claim != nil {
			t.Errorf("%s: %v", e.Name, tab.Claim)
		}
		if len(tab.Lines) < 2 || tab.Lines[0] != e.header {
			t.Fatalf("%s: lines %q", e.Name, tab.Lines)
		}
		for _, ln := range tab.Lines[1:] {
			if got := strings.Count(ln, ",") + 1; got != e.width {
				t.Errorf("%s: row %q has %d cells, want %d", e.Name, ln, got, e.width)
			}
		}
	}
}

// TestClaimsReportViolations hands every claim check a table that
// contradicts the paper and one that upholds it.
func TestClaimsReportViolations(t *testing.T) {
	deg := func(v DemandVariant, k int, d float64) DegRow {
		return DegRow{Variant: v, Threshold: 1e-5, MaxFailures: k, Degradation: d}
	}
	for _, tc := range []struct {
		name      string
		bad, good error
	}{
		{"figure1",
			rahaBeatsNaive([]Fig1Row{{Degradation: 6}, {Degradation: 9}, {Degradation: 9}}),
			rahaBeatsNaive([]Fig1Row{{Degradation: 6}, {Degradation: 0}, {Degradation: 9}})},
		{"figure2 rising",
			probableFailuresCurve([]Fig2Row{{1e-5, 16}, {1e-4, 17}}),
			probableFailuresCurve([]Fig2Row{{1e-5, 16}, {1e-4, 16}})},
		{"figure2 k ≤ 2",
			probableFailuresCurve([]Fig2Row{{1e-5, 2}, {1e-4, 1}}),
			probableFailuresCurve([]Fig2Row{{1e-5, 3}, {1e-4, 1}})},
		{"figure3",
			rahaDominatesBaselines([]Fig3Row{{Slack: 0.4, Raha: 0.7, Max: 0.8, Avg: 0.6}}),
			rahaDominatesBaselines([]Fig3Row{{Slack: 0.4, Raha: 0.8, Max: 0.8, Avg: 0.6}})},
		// The panels are compared apart: the variable panel's ∞ row does not
		// cover the fixed-avg panel's k = 2 row.
		{"figure5/6",
			unconstrainedDominates([]DegRow{deg(FixedAvg, 2, 0.5), deg(FixedAvg, 0, 0.4), deg(Variable, 0, 1.5)}),
			unconstrainedDominates([]DegRow{deg(FixedAvg, 2, 0.5), deg(FixedAvg, 4, 0.9), deg(FixedAvg, 0, 0.5)})},
		{"figure11/17",
			augmentConverged([]AugmentRow{{Converged: true}, {Slack: 0.5}}),
			augmentConverged([]AugmentRow{{Converged: true}, {Slack: 0.5, Converged: true}})},
		{"figure16",
			qualityIndependentOfTimeout([]TimeoutRow{{Timeout: time.Second, Degradation: 0.9}, {Timeout: 2 * time.Second, Degradation: 0.8}}),
			qualityIndependentOfTimeout([]TimeoutRow{{Timeout: time.Second, Degradation: 0.9}, {Timeout: 2 * time.Second, Degradation: 0.86}})},
		{"fixed-runtime",
			fixedDemandFast([]RuntimeRow{{Runtime: time.Second}, {Runtime: 3 * time.Minute}}),
			fixedDemandFast([]RuntimeRow{{Runtime: time.Second}, {Runtime: 2 * time.Minute}})},
		{"mlu/maxmin",
			growsWithSlack([]ObjectiveRow{{Slack: 0, Degradation: 0.3}, {Slack: 0.2, Degradation: 0.5}, {Slack: 0.4, Degradation: 0.2}}),
			growsWithSlack([]ObjectiveRow{{Slack: 0, Degradation: 0.3}, {Slack: 0.2, Degradation: 0.2}, {Slack: 0.4, Degradation: 0.3}})},
	} {
		if tc.bad == nil {
			t.Errorf("%s: violating table passed the claim check", tc.name)
		}
		if tc.good != nil {
			t.Errorf("%s: upholding table failed: %v", tc.name, tc.good)
		}
	}
}

// TestSelect: -only resolves through the registry, in registry order, and a
// misspelled name is an error naming it and the valid names.
func TestSelect(t *testing.T) {
	all, err := Select(" ")
	if err != nil || len(all) != len(Registry()) {
		t.Fatalf("empty list: %d experiments, %v", len(all), err)
	}
	sel, err := Select("table3, FIGURE5,figure5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "figure5" || sel[1].Name != "table3" {
		t.Fatalf("got %d experiments, want figure5 then table3", len(sel))
	}
	for _, list := range []string{"figre5", "figure5,nosuch"} {
		_, err := Select(list)
		if err == nil {
			t.Fatalf("%q: no error", list)
		}
		bad := list[strings.LastIndex(list, ",")+1:]
		if msg := err.Error(); !strings.Contains(msg, bad) || !strings.Contains(msg, "figure12b") || !strings.Contains(msg, "fixed-runtime") {
			t.Errorf("%q: error %q must name %q and the valid experiments", list, msg, bad)
		}
	}
}
