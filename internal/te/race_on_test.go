//go:build race

package te

// raceEnabled lets the allocation budget skip itself under the race
// detector, whose instrumentation allocates on its own account.
const raceEnabled = true
