//go:build !race

package runner

// raceEnabled reports whether the test binary runs under the race
// detector, which inflates allocation counts.
const raceEnabled = false
