//go:build race

package jobs

// raceEnabled reports that this test binary was built with -race, under
// which the retention soak runs fewer jobs: race instrumentation
// multiplies the cost of every lock and goroutine handoff.
const raceEnabled = true
