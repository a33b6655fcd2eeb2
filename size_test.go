package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// Size limits on the non-test functions of the packages the ROADMAP holds to
// them, kept dependency-free so the check runs in tier-1.
const (
	maxFuncLines  = 100
	maxFuncParams = 6
)

// sizeChecked lists the package directories the limits apply to.
var sizeChecked = []string{
	"internal/adversary", "internal/broadcast", "internal/consensus", "internal/core", "internal/epistemic",
	"internal/fd", "internal/fleet", "internal/model", "internal/obs", "internal/pool", "internal/server",
	"internal/service", "internal/sim", "internal/store", "internal/trace", "internal/workload",
}

// lengthExempt names the functions, as package.name, allowed past
// maxFuncLines, with the reason.
var lengthExempt = map[string]string{
	"server.newServerMetrics": "a flat list of metric registrations: no branching to untangle, and splitting it would only scatter the list",
}

// TestFunctionSizeLimits keeps the checked packages lean: no function in
// their non-test files runs past maxFuncLines or takes more than
// maxFuncParams parameters.  A function that needs more is carrying several
// jobs or threading state that belongs in a value (see internal/server's
// window and request).
func TestFunctionSizeLimits(t *testing.T) {
	for _, dir := range sizeChecked {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, pkg := range pkgs {
				for path, file := range pkg.Files {
					if strings.HasSuffix(path, "_test.go") {
						continue
					}
					for _, decl := range file.Decls {
						fn, ok := decl.(*ast.FuncDecl)
						if !ok {
							continue
						}
						checked++
						params := 0
						for _, field := range fn.Type.Params.List {
							params += max(1, len(field.Names))
						}
						if params > maxFuncParams {
							t.Errorf("%s: %s takes %d parameters (limit %d)", path, fn.Name.Name, params, maxFuncParams)
						}
						lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
						if _, exempt := lengthExempt[pkg.Name+"."+fn.Name.Name]; lines > maxFuncLines && !exempt {
							t.Errorf("%s: %s is %d lines (limit %d)", path, fn.Name.Name, lines, maxFuncLines)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatalf("no functions found in %s: the check is not looking at the package", dir)
			}
		})
	}
}
