package jobs

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// moduleDeps walks the non-test imports of the module package pkg and
// every module package it reaches, reading source with go/build from
// the module root (no go command). It returns each module package it
// reached and each import outside the module.
func moduleDeps(t *testing.T, pkg string) (module, external map[string]bool) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	module, external = map[string]bool{}, map[string]bool{}
	var walk func(string)
	walk = func(path string) {
		if module[path] {
			return
		}
		module[path] = true
		p, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, "repro/")), 0)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for _, imp := range p.Imports {
			if strings.HasPrefix(imp, "repro/") {
				walk(imp)
			} else {
				external[imp] = true
			}
		}
	}
	walk(pkg)
	return module, external
}

// TestJobsImportsNoTraining keeps the job table, and through it the
// gateway, off the training stack: internal/jobs reaches none of the
// packages that define results, sweeps or the run registry, and the
// serving clock imports the standard library only.
func TestJobsImportsNoTraining(t *testing.T) {
	reached, _ := moduleDeps(t, "repro/internal/jobs")
	for _, banned := range []string{"core", "experiments", "runstore", "metrics"} {
		if reached["repro/internal/"+banned] {
			t.Errorf("internal/jobs reaches internal/%s", banned)
		}
	}
	reached, external := moduleDeps(t, "repro/internal/clock")
	delete(reached, "repro/internal/clock")
	for imp := range external {
		if first, _, _ := strings.Cut(imp, "/"); strings.Contains(first, ".") {
			reached[imp] = true
		}
	}
	for imp := range reached {
		t.Errorf("internal/clock imports %s, outside the standard library", imp)
	}
}
