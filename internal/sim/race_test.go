//go:build race

package sim_test

// raceEnabled relaxes timing bounds that the race detector's
// instrumentation would break.
const raceEnabled = true
