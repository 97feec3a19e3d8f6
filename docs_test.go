package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCitation matches a backticked test or fuzz target name in prose:
// bare (`TestX`), package-qualified (`comm.TestX`, `cmd/fdarun:TestX`), a
// subtest (`TestX/case`) or a prefix (`TestX*`).
var docCitation = regexp.MustCompile("`(?:[A-Za-z0-9_/]+[.:])?((?:Test|Fuzz)[A-Za-z0-9_]*)(\\*|/[^`]*)?`")

// TestDocsCiteDefinedTests: every test or fuzz target DESIGN.md and
// README.md name in backticks is a top-level function of some _test.go
// file in the repository, and a name ending in * is the prefix of one.
// The docs cite tests as evidence, so a renamed or deleted test must take
// its citations with it.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCitation.FindAllStringSubmatch(string(text), -1) {
			name, prefix := m[1], m[2] == "*"
			found := defined[name]
			for def := range defined {
				found = found || prefix && strings.HasPrefix(def, name)
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, m[0])
			}
		}
	}
}
