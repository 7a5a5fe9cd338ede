//go:build race

package host

// raceEnabled reports whether this test binary was built with the race
// detector, whose runtime allocates on its own: exact allocation counts
// skip themselves under it.
const raceEnabled = true
