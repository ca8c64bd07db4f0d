package conc

import "testing"

func TestPolicySplit(t *testing.T) {
	tests := []struct {
		name           string
		workers, units int
		fanout, pw     int
	}{
		{"many units", 4, 16, 4, 1},
		{"exact fit", 4, 4, 4, 1},
		{"single solve", 4, 1, 1, 4},
		{"zero units", 4, 0, 1, 4},
		{"in between", 8, 2, 2, 4},
		{"uneven split", 7, 3, 3, 2},
		{"serial budget", 1, 16, 1, 1},
	}
	for _, tt := range tests {
		fanout, pw := Split(tt.workers, tt.units)
		if fanout != tt.fanout || pw != tt.pw {
			t.Errorf("%s: Split(%d, %d) = (%d, %d), want (%d, %d)",
				tt.name, tt.workers, tt.units, fanout, pw, tt.fanout, tt.pw)
		}
	}

	// The routing rule as a property: never idle below one, never
	// oversubscribe, and never widen a solve while units could still fill
	// the budget.
	for w := 0; w <= 64; w++ {
		budget := Workers(w)
		for units := 0; units <= 64; units++ {
			fanout, pw := Split(w, units)
			switch {
			case fanout < 1 || pw < 1:
				t.Errorf("Split(%d, %d) = (%d, %d): returns below 1", w, units, fanout, pw)
			case fanout > max(units, 1):
				t.Errorf("Split(%d, %d): fanout %d exceeds the unit count", w, units, fanout)
			case fanout*pw > budget:
				t.Errorf("Split(%d, %d) = (%d, %d): spends more than %d workers", w, units, fanout, pw, budget)
			case units >= budget && pw != 1:
				t.Errorf("Split(%d, %d): %d-wide solves with enough units to fill the budget", w, units, pw)
			}
		}
	}
}
