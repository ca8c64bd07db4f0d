//go:build race

package batch

// raceEnabled lets the allocation budgets skip themselves under the race
// detector, whose instrumentation allocates on its own account.
const raceEnabled = true
