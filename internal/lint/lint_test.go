package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture tests mirror x/tools' analysistest: each directory under
// testdata/src is parsed and type-checked as an as-if import path (so
// fixtures can opt into a scope like repro/internal/core without
// living there), the analyzer under test runs, and its diagnostics are
// matched against trailing `// want "regex"` comments. Every
// diagnostic must be wanted and every want must fire.

// repoRoot is the module root relative to this package's directory,
// where `go list -export` resolves the fixture's imports offline.
const repoRoot = "../.."

// newFixtureImporter builds the shared type-checking universe: every
// module package plus the stdlib packages the fixtures import.
func newFixtureImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	imp, err := NewImporter(fset, repoRoot, "./...", "time", "math/rand", "io")
	if err != nil {
		t.Fatalf("building fixture importer: %v", err)
	}
	return imp
}

// loadFixture type-checks testdata/src/<dir> as import path asPath.
func loadFixture(t *testing.T, fset *token.FileSet, imp types.Importer, dir, asPath string) *Package {
	t.Helper()
	srcDir, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", dir, err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	pkg := CheckDir(fset, srcDir, asPath, goFiles, imp)
	if pkg.Err != nil {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.Err)
	}
	return pkg
}

// wantExp is one expectation parsed from a `// want "regex"` comment.
type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var (
	wantCommentRE = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantPatternRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// parseWants scans the fixture's comments for expectations. A want
// comment applies to the line it sits on, so expectations ride as
// trailing comments on the flagged statements.
func parseWants(t *testing.T, pkg *Package) []*wantExp {
	t.Helper()
	var wants []*wantExp
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantCommentRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pm := range wantPatternRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(pm[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pm[1], err)
					}
					wants = append(wants, &wantExp{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture executes one analyzer over one fixture and matches
// diagnostics against the fixture's want comments.
func runFixture(t *testing.T, dir, asPath string, a *Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	imp := newFixtureImporter(t, fset)
	pkg := loadFixture(t, fset, imp, dir, asPath)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, dir, err)
	}
	wants := parseWants(t, pkg)
	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claimWant consumes the first unmatched expectation on the
// diagnostic's line whose pattern matches its message.
func claimWant(wants []*wantExp, d Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func TestDetmapFixture(t *testing.T) {
	runFixture(t, "detmap", "repro/internal/core", DetmapAnalyzer)
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "wallclock", "repro/internal/core", WallclockAnalyzer)
}

func TestFloatsumFixture(t *testing.T) {
	runFixture(t, "floatsum", "repro/internal/core", FloatsumAnalyzer)
}

func TestObswriteValueRuleFixture(t *testing.T) {
	runFixture(t, "obswrite", "repro/internal/core", ObswriteAnalyzer)
}

func TestObswriteImportRuleFixture(t *testing.T) {
	runFixture(t, "obswrite_obs", "repro/internal/obs", ObswriteAnalyzer)
}

func TestNoallocFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("noalloc shells out to go build -gcflags=-m")
	}
	runFixture(t, "noalloc", "repro/internal/lint/testdata/src/noalloc", NoallocAnalyzer)
}

// TestAllowDiagnostics covers the framework's own findings: unused,
// malformed and misaddressed annotations each fail the build, so
// deleting a violation without its annotation — or vice versa — is
// caught. Expectations are programmatic because an annotation and a
// want comment cannot share a line.
func TestAllowDiagnostics(t *testing.T) {
	fset := token.NewFileSet()
	imp := newFixtureImporter(t, fset)
	pkg := loadFixture(t, fset, imp, "allows", "repro/internal/core")
	diags, err := Run([]*Package{pkg}, []*Analyzer{WallclockAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		`unused //fda:allow(wallclock, ...)`,
		`malformed annotation "//fda:allow(wallclock)"`,
		`names unknown analyzer "nosuch"`,
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrings), renderDiags(diags))
	}
	for i, want := range wantSubstrings {
		if d := diags[i]; d.Analyzer != "fdavet" || !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic %d = %s: %s, want fdavet message containing %q", i, d.Analyzer, d.Message, want)
		}
	}
}

// TestAllowConsumedSuppresses pins the two-line coverage rule: an
// annotation suppresses on its own line and the line below, and a
// consumed annotation is not reported as unused.
func TestAllowConsumedSuppresses(t *testing.T) {
	fset := token.NewFileSet()
	imp := newFixtureImporter(t, fset)
	pkg := loadFixture(t, fset, imp, "wallclock", "repro/internal/core")
	diags, err := Run([]*Package{pkg}, []*Analyzer{WallclockAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "unused //fda:allow") {
			t.Errorf("consumed annotation reported unused: %s", d)
		}
		if d.Pos.Line > 0 && strings.Contains(d.Message, "time.Now") && strings.Contains(d.Message, "epoch") {
			t.Errorf("suppressed diagnostic leaked: %s", d)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d.String())
	}
	return b.String()
}
