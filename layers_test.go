package netclus_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestImportLayers pins the module's import graph where it layers: the
// graph model under the engines, the engines under the write path, the
// write path under the root package and the server. A new upward edge fails
// here, so it has to be added on purpose. Packages are named by their
// directory, "." for the root package; test files are not read.
func TestImportLayers(t *testing.T) {
	imports := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
				return filepath.SkipDir // benchmark/ is a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if imp != "netclus" && !strings.HasPrefix(imp, "netclus/") {
				continue
			}
			rel := "."
			if imp != "netclus" {
				rel = strings.TrimPrefix(imp, "netclus/")
			}
			if !slices.Contains(imports[dir], rel) {
				imports[dir] = append(imports[dir], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, deps := range imports {
		slices.Sort(deps)
	}

	for pkg, want := range map[string][]string{
		"internal/network":    {"internal/heapx"},
		"internal/core":       {"internal/heapx", "internal/network", "internal/unionfind"},
		"internal/csr":        {"internal/heapx", "internal/network", "internal/snapfile", "internal/unionfind"},
		"internal/delta":      {"internal/csr", "internal/network", "internal/unionfind"},
		"internal/server/api": {"."},
	} {
		if got := imports[pkg]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s imports %v, want %v", pkg, got, want)
		}
	}
	for pkg, deps := range imports {
		if slices.Contains(deps, "internal/exp") && pkg != "cmd/experiments" {
			t.Errorf("%s imports internal/exp; only cmd/experiments may", pkg)
		}
		if !strings.HasPrefix(pkg, "internal/") || pkg == "internal/server" {
			continue
		}
		for _, up := range []string{"internal/server", "internal/delta"} {
			if slices.Contains(deps, up) {
				t.Errorf("%s imports %s; below the root package only internal/server may", pkg, up)
			}
		}
	}
}
