package network_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestNetworkInterfaces pins the package's dispatch interfaces: every
// interface type declared by its non-test files, by name. Adding, removing or
// renaming one is a design change and must update this list.
func TestNetworkInterfaces(t *testing.T) {
	want := []string{
		"Bounder",
		"Graph",
		"KNNQuerier",
		"LabelKernel",
		"NearestExpander",
		"PointInfoSource",
		"RangeQuerier",
		"ScratchProvider",
		"TargetBounder",
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					if ts := spec.(*ast.TypeSpec); isInterface(ts.Type) {
						got = append(got, ts.Name.Name)
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("internal/network declares %d interfaces %v, want %d %v", len(got), got, len(want), want)
	}
}

func isInterface(e ast.Expr) bool {
	_, ok := e.(*ast.InterfaceType)
	return ok
}
