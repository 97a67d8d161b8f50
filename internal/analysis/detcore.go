package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DetCore enforces the determinism contract of the computation core.
// Cached immutable regions are validity certificates precisely because
// recomputing an analysis yields bit-identical output (the replication
// and cache property tests assert it); docs/architecture.md and the
// engine godoc argue the invariant. Four things break it silently:
//
//   - ranging over a map where the iteration order can feed score
//     accumulation or result ordering (Go randomizes map order);
//   - wall-clock reads (time.Now and friends) influencing computation;
//   - math/rand anywhere in the core;
//   - go statements: a computation that spawns goroutines makes its
//     counters (and anything sharing a scan or a buffer pool) depend on
//     scheduling. One query's region computation runs on the calling
//     goroutine; concurrency belongs to the layers above the core.
//
// The analyzer forbids all four in internal/core, internal/geom and
// internal/topk. Uses that provably cannot affect answers (metrics
// timing, a map range whose elements are fully re-sorted with a total
// order) are deliberate exceptions: suppress with
// //lint:allow detcore <reason>.
var DetCore = &Analyzer{
	Name: "detcore",
	Doc:  "forbid nondeterminism sources (map range order, wall clock, math/rand, goroutines) in the computation core",
	Run:  runDetCore,
}

// detTimeFuncs are the time package reads that leak wall-clock state
// into a computation.
var detTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDetCore(pass *Pass) error {
	if !pathIsAny(pass.Pkg, "internal/core", "internal/geom", "internal/topk") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if p, err := strconv.Unquote(n.Path.Value); err == nil {
					if p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(n.Pos(), "import of %s in a deterministic-core package: region certificates require bit-identical recomputation", p)
					}
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in a deterministic-core package: region computation runs on the calling goroutine so its counters never depend on scheduling")
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over a map: iteration order is randomized and must not feed score accumulation or result ordering")
					}
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if obj.Pkg().Path() == "time" && detTimeFuncs[obj.Name()] {
					if _, isFunc := obj.(*types.Func); isFunc {
						pass.Reportf(n.Pos(), "time.%s in a deterministic-core package: wall-clock reads must not influence computation", obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}
