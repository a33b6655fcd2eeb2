package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// TestTimedEventSize pins the size of a recorded event.  Every history is a
// []TimedEvent, so this is the stride of every scan over a run and the unit
// every run slab is allocated, zeroed and GC-scanned in (the slabs hold a
// pointer: Message.Kind).  Growing it grows sweep-offline's one slab per run
// and extract-offline's two in proportion, and moves every `sim.ns_per_event`
// and `alloc_kb_per_seed` baseline with it; a field added here needs that
// measurement beside it.
func TestTimedEventSize(t *testing.T) {
	if got := unsafe.Sizeof(TimedEvent{}); got != 176 {
		t.Fatalf("unsafe.Sizeof(TimedEvent{}) = %d, want 176", got)
	}
}

// otherTimed names the range loops the syntactic check below would mistake
// for event loops, as "file: variable", with what they really range over.
var otherTimed = map[string]string{
	"../broadcast/urb.go: b":  "[]Broadcast, three words each",
	"../sim/sim.go: cr":       "[]CrashSpec, two words each",
	"../workload/spec.go: cr": "[]sim.CrashSpec, two words each",
}

// TestNoByValueEventRanges keeps recorded events read in place: a
// `for _, te := range evs` copies each 176-byte TimedEvent to the stack
// before the body looks at one field of it, which was a quarter of the
// extraction pipeline's CPU time.  Non-test code under internal/ indexes
// instead (`for i := range evs { te := &evs[i] ... }`).  The check is
// syntactic — a range value used as `te.Event` or `te.Time` — so it needs no
// type information and no dependencies; otherTimed lists what it would
// otherwise misread.
func TestNoByValueEventRanges(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			value, ok := loop.Value.(*ast.Ident)
			if !ok || value.Name == "_" || otherTimed[path+": "+value.Name] != "" {
				return true
			}
			field := ""
			ast.Inspect(loop.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Event" || sel.Sel.Name == "Time") {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == value.Name {
						field = sel.Sel.Name
					}
				}
				return field == ""
			})
			if field != "" {
				t.Errorf("%s: range copies each TimedEvent into %q to read %s.%s; index the slice instead",
					fset.Position(loop.Pos()), value.Name, value.Name, field)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no files found: the check is not looking at internal/")
	}
}
