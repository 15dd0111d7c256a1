package cesrm

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simDrivenPackages are the packages whose code runs inside (or
// schedules into) the deterministic simulation. Go randomizes map
// iteration order per loop, so a map range there that schedules
// events, draws random numbers, sends packets or feeds the fingerprint
// makes a run irreproducible.
var simDrivenPackages = []string{
	"sim", "netsim", "srm", "core", "lms", "stats", "chaos", "experiment",
}

// orderInsensitive is the marker that justifies a map range: it must
// open a line of the comment directly above the loop and say why the
// iteration order cannot be observed.
const orderInsensitive = "order-insensitive:"

// mapRange is one range-over-map statement in non-test code.
type mapRange struct {
	pos       token.Position
	annotated bool
}

// findMapRanges type-checks the non-test files of the package in dir
// and returns every range statement over a map, with whether the
// comment group ending on the line above carries the marker.
func findMapRanges(t *testing.T, fset *token.FileSet, imp types.Importer, dir, path string) []mapRange {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	var out []mapRange
	for _, f := range files {
		// The marker may sit on any line of the comment group that ends
		// directly above the loop, so a justification can wrap.
		markedLine := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), orderInsensitive) {
					markedLine[fset.Position(cg.End()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.Pos())
			out = append(out, mapRange{pos: pos, annotated: markedLine[pos.Line-1]})
			return true
		})
	}
	return out
}

// TestMapRangesAreOrderInsensitive is the determinism lint: every range
// over a map in the simulation-driven packages must carry an
// "// order-insensitive:" justification on the line above. An
// unjustified loop is the bug class that once scheduled session
// messages in map order and made wire replays diverge.
func TestMapRangesAreOrderInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks eight packages from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	total := 0
	for _, pkg := range simDrivenPackages {
		for _, r := range findMapRanges(t, fset, imp, filepath.Join("internal", pkg), "cesrm/internal/"+pkg) {
			total++
			if !r.annotated {
				t.Errorf("%s: range over a map without an // %s comment on the line above", r.pos, orderInsensitive)
			}
		}
	}
	// The packages do range over maps; finding none means the type
	// information failed to resolve, not that the code is clean.
	if total == 0 {
		t.Fatal("found no map ranges at all; the lint is not seeing map types")
	}
}
