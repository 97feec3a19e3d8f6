package lint

import "strings"

// modulePath is this repository's module path (go.mod). The scope
// helpers key off full import paths so fixture tests can opt into a
// scope by type-checking under an as-if path (see linttest).
const modulePath = "repro"

// deterministicPackages are the packages under the bit-exact
// determinism contract (DESIGN.md §3): identical results at any
// parallelism, any fabric, telemetry on or off. detmap, wallclock and
// floatsum enforce their invariants here.
var deterministicPackages = map[string]bool{
	modulePath + "/internal/core":        true,
	modulePath + "/internal/nn":          true,
	modulePath + "/internal/opt":         true,
	modulePath + "/internal/tensor":      true,
	modulePath + "/internal/comm":        true,
	modulePath + "/internal/experiments": true,
	modulePath + "/internal/dist":        true,
	modulePath + "/internal/workload":    true,
	modulePath + "/internal/cluster":     true,
	modulePath + "/internal/jobs":        true,
}

// obsPath is the telemetry package, whose one-way dependency rule
// obswrite enforces.
const obsPath = modulePath + "/internal/obs"

// DeterministicPackage reports whether path carries the determinism
// contract.
func DeterministicPackage(path string) bool { return deterministicPackages[path] }

// InternalPackage reports whether path is part of this module's
// internal tree (wallclock's scope: cmd binaries legitimately live on
// wall time; library code must not, outside annotated sites).
func InternalPackage(path string) bool {
	return strings.HasPrefix(path, modulePath+"/internal/")
}

// ModulePackage reports whether path belongs to this module at all
// (obswrite's value-passing rule applies module-wide).
func ModulePackage(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// Analyzers returns the full fdavet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetmapAnalyzer,
		WallclockAnalyzer,
		FloatsumAnalyzer,
		ObswriteAnalyzer,
		NoallocAnalyzer,
	}
}
