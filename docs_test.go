package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
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

// checkedBinaries are the commands whose documented invocations
// TestDocsInvokeDefinedFlags checks. fdavet is left out: it also speaks
// the go vet tool protocol, whose flags are not flag-package
// definitions.
var checkedBinaries = []string{"fdaexp", "fdagate", "fdaload", "fdarun", "fdaserve"}

// definedFlags returns the flag names cmd/<bin>/main.go defines: the
// string-literal name argument of every flag.X or fs.X definition.
func definedFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", bin, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" && pkg.Name != "fs" {
			return true
		}
		arg := 0 // flag.Int("name", …); the …Var forms take the target first
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	return names
}

// commandLines returns the shell lines of a document, backslash
// continuations joined: the fenced code blocks of a Markdown file, or
// the recipe lines of a Makefile with its simple variables expanded.
func commandLines(t *testing.T, doc string) []string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	makefile := doc == "Makefile"
	vars := map[string]string{}
	var lines []string
	inFence, cont := false, ""
	for _, line := range strings.Split(string(text), "\n") {
		if cont == "" {
			if makefile {
				if m := makeVar.FindStringSubmatch(line); m != nil {
					vars[m[1]] = m[2]
				}
				if !strings.HasPrefix(line, "\t") {
					continue
				}
			} else {
				if strings.HasPrefix(strings.TrimSpace(line), "```") {
					inFence = !inFence
					continue
				}
				if !inFence {
					continue
				}
			}
		}
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		lines = append(lines, cont+line)
		cont = ""
	}
	for i, line := range lines {
		lines[i] = makeRef.ReplaceAllStringFunc(line, func(ref string) string {
			return vars[ref[2:len(ref)-1]]
		})
	}
	return lines
}

var (
	makeVar  = regexp.MustCompile(`^([A-Z_]+)\s*[:?]?=\s*(.*)$`)
	makeRef  = regexp.MustCompile(`\$\([A-Z_]+\)`)
	flagWord = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)(=.*)?$`)
)

// TestDocsInvokeDefinedFlags: every command line in README.md's and
// DESIGN.md's code blocks and in the Makefile's recipes that runs one of
// the checked binaries — bare, by a path ending in its name, or as
// `go run ./cmd/<bin>` — passes it only flags its main.go defines, so a
// removed or renamed flag cannot linger in a documented command. Prose
// is not checked: it may name a flag that is gone on purpose.
func TestDocsInvokeDefinedFlags(t *testing.T) {
	flags := map[string]map[string]bool{}
	for _, bin := range checkedBinaries {
		if flags[bin] = definedFlags(t, bin); len(flags[bin]) == 0 {
			t.Fatalf("found no flag definitions in cmd/%s/main.go", bin)
		}
	}
	invocations := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "Makefile"} {
		for _, line := range commandLines(t, doc) {
			words := strings.Fields(line)
			bin, start := "", 0
			for i, w := range words {
				if strings.HasPrefix(w, "#") {
					break
				}
				if strings.ContainsAny(w, "|;&<>") {
					bin = "" // a pipe, list or redirect ends the command
					continue
				}
				w = strings.TrimPrefix(w, "@")
				if _, ok := flags[path.Base(w)]; ok && (!strings.Contains(w, "cmd/") || i > 0 && words[i-1] == "run") {
					bin, start = path.Base(w), i
					invocations++
					continue
				}
				if m := flagWord.FindStringSubmatch(w); m != nil && bin != "" && !flags[bin][m[1]] {
					t.Errorf("%s: %s has no flag -%s: %s", doc, bin, m[1], strings.Join(words[start:i+1], " "))
				}
			}
		}
	}
	if invocations == 0 {
		t.Errorf("found no command line invoking any of %v", checkedBinaries)
	}
}

// TestWorkloadSpecFiles: every committed spec under docs/workloads
// parses strictly, validates and schedules. The smoke specs and the
// README's shapes are the inline fdaload flag sets they replaced
// (-rate 40 / 15 -duration 2s -mix train=1,status=4,store=1 -steps 10
// -k 1 -eval-every 10; the quickstart command), so
// their request lines after the tracev1 header are pinned to the
// digests those flags exported; and DESIGN.md §13 shows example.json
// verbatim.
func TestWorkloadSpecFiles(t *testing.T) {
	pinned := map[string]struct {
		requests int
		sha256   string
	}{
		"loadsmoke.json":    {89, "f762751660065ade5cc2c4eb46cc932adbbb06cc2014bc640be7e261df204c6a"},
		"clustersmoke.json": {37, "ef35cd3a2150e8b6f7e92a7deda34e905af2ec5cb4e1aa46f6b9f9420d06890b"},
		"poisson.json":      {485, "a9021154d843e74f154af6e4724dfeccfc4b08485feb77590bf756412f9248e3"},
	}
	files, err := filepath.Glob("docs/workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files under docs/workloads (err %v)", err)
	}
	seen := map[string]bool{}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.ParseSpec(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		reqs, err := spec.Schedule()
		if err != nil || len(reqs) == 0 {
			t.Errorf("%s: scheduled %d requests, err %v", file, len(reqs), err)
			continue
		}
		pin, ok := pinned[filepath.Base(file)]
		if !ok {
			continue
		}
		seen[filepath.Base(file)] = true
		var trace bytes.Buffer
		if err := workload.WriteTrace(&trace, workload.TraceHeader{Source: "fdaload"}, reqs); err != nil {
			t.Fatal(err)
		}
		_, lines, _ := bytes.Cut(trace.Bytes(), []byte("\n"))
		if sum := fmt.Sprintf("%x", sha256.Sum256(lines)); len(reqs) != pin.requests || sum != pin.sha256 {
			t.Errorf("%s: %d requests, sha256 %s; want %d, %s", file, len(reqs), sum, pin.requests, pin.sha256)
		}
	}
	for name := range pinned {
		if !seen[name] {
			t.Errorf("pinned spec docs/workloads/%s is missing or did not parse", name)
		}
	}
	example, err := os.ReadFile("docs/workloads/example.json")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(design, append([]byte("```json\n"), example...)) {
		t.Error("DESIGN.md §13 does not show docs/workloads/example.json verbatim")
	}
}
