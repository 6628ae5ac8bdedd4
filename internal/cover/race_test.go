//go:build race

package cover_test

// raceEnabled shrinks the oracle wall's random corpus under the race
// detector, which slows the oracle and the plan builds tenfold.
const raceEnabled = true
