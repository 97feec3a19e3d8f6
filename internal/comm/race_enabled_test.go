//go:build race

package comm

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates: the zero-alloc assertion skips itself.
const raceEnabled = true
