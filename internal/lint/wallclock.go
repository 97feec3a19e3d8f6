package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// WallclockAnalyzer forbids ambient nondeterminism sources — wall
// clock reads and the global math/rand stream — in every internal
// library package. Simulated time lives on the SimFabric virtual
// clock (DESIGN.md §9), randomness on the counter-based tensor.RNG
// (§3); real wall time is legitimate only at the annotated edges
// (runstore manifest timestamps and staging GC, the obs trace epoch,
// comm/tcp socket timing, the serving wall clock (internal/clock)),
// each carrying //fda:allow(wallclock, ...) so the full exemption
// surface is one grep away. The cmd binaries are out of scope: servers
// and CLIs legitimately live on wall time.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/Sleep/etc and global math/rand outside annotated sites",
	Run:  runWallclock,
}

// wallclockForbidden are the time package's ambient-clock entry
// points. Pure duration/const arithmetic (time.Duration, time.Second)
// stays legal — it reads no clock.
var wallclockForbidden = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runWallclock(pass *Pass) error {
	if !InternalPackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: deterministic code must draw randomness from tensor.RNG (counter-based, seed-addressed) so streams are replayable and parallelism-independent", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pass.Info == nil {
				return true
			}
			pn, ok := pass.Info.ObjectOf(id).(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if wallclockForbidden[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the ambient clock; deterministic code must use the fabric's virtual clock, or annotate //fda:allow(wallclock, reason) at a legitimate edge", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
