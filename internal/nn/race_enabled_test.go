//go:build race

package nn

// raceEnabled reports that this test binary was built with -race. Race
// instrumentation allocates shadow state of its own, so the zero-alloc
// assertions are meaningful only without it.
const raceEnabled = true
