//go:build race

package models

// raceEnabled reports that this test binary was built with -race. Race
// instrumentation allocates shadow state of its own, so the allocation
// bounds are meaningful only without it.
const raceEnabled = true
