// Package loading for fdavet. Instead of depending on
// golang.org/x/tools/go/packages (not vendored here), the loader leans
// on the go command itself: `go list -deps -export -json` enumerates
// the packages matching the user's patterns and compiles export data
// for every dependency into the build cache, and the standard
// library's gc importer consumes that export data through a lookup
// function. Source is parsed (with comments — the annotation grammar
// lives there) and type-checked per analyzed package, so analyzers see
// full types.Info at go/analysis fidelity, entirely offline.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Err   error // parse or type error; analysis refuses to run on top
}

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` in dir and decodes the
// JSON stream.
func goList(dir string, patterns []string) ([]listEntry, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// GcImporter wraps the standard library's gc export-data importer
// around a lookup function (the go vet protocol driver feeds it the
// vet config's PackageFile map).
func GcImporter(fset *token.FileSet, lookup func(string) (io.ReadCloser, error)) types.Importer {
	return importer.ForCompiler(fset, "gc", lookup)
}

// exportImporter resolves imports through compiled export data.
type exportImporter struct {
	exports map[string]string // import path → export file
	gc      types.ImporterFrom
}

// NewImporter builds a types.Importer whose universe is the packages
// matched by patterns (plus all their dependencies), with export data
// produced by `go list -export` run in dir. The go command compiles
// into the local build cache, so this works with no network.
func NewImporter(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return newExportImporter(fset, entries), nil
}

// newExportImporter indexes the export files `go list -export` reported.
func newExportImporter(fset *token.FileSet, entries []listEntry) *exportImporter {
	imp := &exportImporter{exports: map[string]string{}}
	for _, e := range entries {
		if e.Export != "" {
			imp.exports[e.ImportPath] = e.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := imp.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (not among the listed patterns or their deps)", path)
		}
		return os.Open(file)
	}
	imp.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return imp
}

func (i *exportImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return i.gc.ImportFrom(path, dir, mode)
}

// CheckDir parses every listed file and type-checks the result as
// import path asPath. Files must all belong to srcDir.
func CheckDir(fset *token.FileSet, srcDir, asPath string, goFiles []string, imp types.Importer) *Package {
	pkg := &Package{ImportPath: asPath, Dir: srcDir}
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(srcDir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Err = err
			return pkg
		}
		pkg.Files = append(pkg.Files, f)
		pkg.GoFiles = append(pkg.GoFiles, path)
	}
	if len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(asPath, fset, pkg.Files, info)
	pkg.Pkg, pkg.Info, pkg.Fset = tpkg, info, fset
	if err != nil {
		pkg.Err = err
	}
	return pkg
}

// Load enumerates, parses and type-checks the non-test compiled Go
// files of every package matching patterns, resolved relative to dir
// (the module root for `fdavet ./...`). Test files are not analyzed:
// the invariants under enforcement govern shipped code, and the test
// matrix is precisely the dynamic layer these checks back up.
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, entries)

	var pkgs []*Package
	for _, e := range entries {
		if e.DepOnly || e.Standard {
			continue
		}
		if e.Error != nil {
			pkgs = append(pkgs, &Package{ImportPath: e.ImportPath, Dir: e.Dir, Err: fmt.Errorf("%s", e.Error.Err)})
			continue
		}
		pkg := CheckDir(fset, e.Dir, e.ImportPath, e.GoFiles, imp)
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
