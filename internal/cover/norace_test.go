//go:build !race

package cover_test

const raceEnabled = false
