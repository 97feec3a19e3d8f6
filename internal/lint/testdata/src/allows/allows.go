// Fixture for the framework's own diagnostics: unused, malformed and
// misaddressed (no such analyzer) //fda:allow annotations all fail, so
// there are no silent exemptions. Expectations live in lint_test.go
// (the annotation and a // want comment cannot share a line).
package allows

import "time"

//fda:allow(wallclock, nothing below reads the clock, so this is dead weight)
const tick = time.Second

//fda:allow(wallclock)
const tock = 2 * time.Second

//fda:allow(nosuch, the analyzer name is a typo)
const tack = 3 * time.Second
