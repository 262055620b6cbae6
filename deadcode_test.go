package ranksql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods under internal/
// that no non-test file names but that stay, each with its reason. Keys
// are "package.Func" or "package.Type.Method".
var uncalledAllowed = map[string]string{
	// Helpers shared by the tests of several packages.
	"rank.MustSpec":            "spec literal for the tests of rank, exec and optimizer",
	"expr.Gt":                  "condition literal for the tests of expr, exec and optimizer",
	"expr.Lt":                  "condition literal for the tests of expr, exec and optimizer",
	"obs.Registry.SortedNames": "the metric-name lists of the server and router tests",
	"server.WithTraceLogger":   "the server and router tests capture the trace log",
	"router.WithTraceLogger":   "the router tests capture the trace log",
	"algebra.Equivalent":       "the algebra's laws, checked by its tests",
	// The paper's experiments, which its tests and benchmarks run.
	"paper.DefaultConfig":    "the §6 default setting",
	"paper.Figure13":         "the Figure 13 experiment",
	"paper.AccurateFraction": "Figure 13's accuracy criterion",
	// Monotone scoring functions besides sum: F may be any monotone
	// function, and the optimizer's robustness tests plan with these. They
	// have no SQL form until SQL gets LEAST and GREATEST.
	"rank.NewMin":     "F = min",
	"rank.NewMax":     "F = max",
	"rank.NewProduct": "F = product",
}

// stdInterfaceMethods are methods that implement a standard-library
// interface, called through it and never by name.
var stdInterfaceMethods = map[string]string{
	"Swap":   "sort.Interface, through container/heap",
	"Unwrap": "errors.Is and errors.As",
}

// uncalledSkippedDirs hold harness code that only tests drive.
var uncalledSkippedDirs = map[string]bool{
	"internal/flakyproxy": true, // the router tests' misbehaving shard
}

// TestNoUncalledExports keeps code nothing calls deleted: it lists every
// exported function or method declared in a non-test file under internal/
// whose name no non-test file of the module or of benchmark/ mentions.
// Matching is by name alone, so a method that implements an interface
// counts as named wherever the interface, or any other use of the name,
// is; the check can miss dead code but never flags live code.
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	// uses counts each identifier's occurrences minus its declarations.
	uses := map[string]int{}
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		checked := strings.HasPrefix(dir, "internal/") && !uncalledSkippedDirs[dir]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.FuncDecl:
				uses[n.Name.Name]--
				if checked && n.Name.IsExported() {
					key := f.Name.Name + "." + n.Name.Name
					if n.Recv != nil {
						key = f.Name.Name + "." + recvType(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					decls = append(decls, decl{key, n.Name.Name, fset.Position(n.Pos()).String(), n.Recv != nil})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	stale := maps.Clone(uncalledAllowed)
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		delete(stale, d.key)
		if _, ok := stdInterfaceMethods[d.name]; ok && d.method {
			continue
		}
		if _, ok := uncalledAllowed[d.key]; ok {
			continue
		}
		uncalled = append(uncalled, d.key+" ("+d.pos+")")
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("no non-test file names %s: delete it, or allow it in uncalledAllowed with a reason", u)
	}
	for key := range stale {
		t.Errorf("uncalledAllowed lists %s, which is named or gone: drop the entry", key)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
}

// recvType is the name of a method's receiver type.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
