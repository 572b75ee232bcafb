package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// godocPackages are the packages the godoc-coverage gate enforces: the
// public API surface, the planner (whose Plan/Stats/Cache types render
// on pkg.go.dev through the masked re-exports), the network serving
// surface (the wire protocol other implementations must interoperate
// with, and the server/client embedders build on), and the storage,
// kernel and application layers the delta/streaming surface
// (matrix.DeltaCSR, core.DeltaProduct) spans. Every exported identifier in them — functions,
// methods on exported types, types, and package-level const/var specs
// — must carry a doc comment.
var godocPackages = []string{
	"internal/apps",
	"internal/core",
	"internal/faultinject",
	"internal/matrix",
	"masked",
	"internal/planner",
	"internal/server",
	"internal/wire",
}

// TestGodocCoverage fails for every exported identifier without a doc
// comment, so the public surface cannot grow undocumented.
func TestGodocCoverage(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range godocPackages {
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s/%s: %v", pkg, name, err)
			}
			checkFileGodoc(t, pkg+"/"+name, f)
		}
	}
}

// checkFileGodoc walks one file's top-level declarations.
func checkFileGodoc(t *testing.T, file string, f *ast.File) {
	t.Helper()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedRecv(d) {
				continue
			}
			if d.Doc == nil {
				t.Errorf("%s: exported %s %s has no doc comment", file, funcKind(d), funcName(d))
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						t.Errorf("%s: exported type %s has no doc comment", file, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// A doc comment on the declaration group covers all
						// of its specs (the const-block idiom); otherwise the
						// spec needs its own doc or line comment.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported %s %s has no doc comment", file, d.Tok, n.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a function is package-level or a method on
// an exported type (methods on unexported types do not render in godoc).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		var b strings.Builder
		switch t := d.Recv.List[0].Type.(type) {
		case *ast.StarExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				b.WriteString(id.Name)
			}
		case *ast.Ident:
			b.WriteString(t.Name)
		}
		if b.Len() > 0 {
			return b.String() + "." + d.Name.Name
		}
	}
	return d.Name.Name
}
