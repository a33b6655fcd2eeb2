package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestTimedEventSize pins the size of a recorded event.  Every history is a
// []TimedEvent, so this is the stride of every scan over a run and the unit
// every run slab is allocated and copied in (pointer-free since the message
// kind became an interned MsgKind and the event a tagged body: 80 bytes, down
// from 176; TestRecordedEventsHoldNoPointers keeps it so).  Sweeps allocate no
// slab per run — they score a
// view of the engine's arena — and neither does extraction's transform, which
// checks each f(r) in a reused arena; but two kinds of slab scale with it:
// every owned run (RunArena.Build: extraction sources, which extract-offline
// allocates per seed, RunAll, Execute, the retaining Simulate…Detector), and
// the per-process histories each idle engine and transform arena keeps at its
// high-water mark.  Growing it also moves every
// `sim.ns_per_event` and `alloc_kb_per_seed` baseline; a field added here
// needs that measurement beside it.
func TestTimedEventSize(t *testing.T) {
	if got := unsafe.Sizeof(TimedEvent{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(TimedEvent{}) = %d, want 80", got)
	}
}

// TestRecordedEventsHoldNoPointers walks the types a run slab and a network
// bucket are made of and fails on any field that holds a pointer — a string,
// slice, map, interface, pointer, channel or func.  A pointer-free slab is
// allocated without being zeroed for the collector and is never scanned by
// it; one string field (Message.Kind was one) would bring both back.
func TestRecordedEventsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.String, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: recorded events must hold no pointers", path, typ.Kind())
		}
	}
	walk("TimedEvent", reflect.TypeOf(TimedEvent{}))
	walk("Message", reflect.TypeOf(Message{}))
}

// otherTimed names the range loops the syntactic check below would mistake
// for event loops, as "file: variable", with what they really range over.
var otherTimed = map[string]string{
	"../broadcast/urb.go: b":  "[]Broadcast, three words each",
	"../sim/sim.go: cr":       "[]CrashSpec, two words each",
	"../workload/spec.go: cr": "[]sim.CrashSpec, two words each",
}

// TestNoByValueEventRanges keeps recorded events read in place: a
// `for _, te := range evs` copies each 80-byte TimedEvent to the stack
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

// byValueAllowed names the functions under internal/sim that may take a
// model.Message by value, as "Type.Method", with why: they are the
// protocol-facing interfaces, which hand a protocol a message of its own and
// do not change with the recording path.
var byValueAllowed = map[string]string{
	"Context.Send":          "protocol-facing interface",
	"Context.Broadcast":     "protocol-facing interface",
	"Protocol.OnMessage":    "protocol-facing interface",
	"procContext.Send":      "implements Context",
	"procContext.Broadcast": "implements Context",
}

// TestSimRecordsEventsInPlace keeps the simulator's recording path free of
// by-value events: an event is reserved in the arena (RunArena.Record) and
// filled where it will live, and a message in flight is written in its bucket
// slot.  A model.Event{...} literal or a model.Event / model.Message parameter
// in non-test internal/sim code is a 72- or 80-byte copy per event per call
// level (160 or 128 bytes when this check was written, a quarter of sweep
// CPU then).  Syntactic, like the check above.
func TestSimRecordsEventsInPlace(t *testing.T) {
	isModel := func(e ast.Expr, names ...string) string {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "model" {
			return ""
		}
		for _, name := range names {
			if sel.Sel.Name == name {
				return name
			}
		}
		return ""
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../sim", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	checkParams := func(owner string, name *ast.Ident, fn *ast.FuncType) {
		checked++
		for _, field := range fn.Params.List {
			typ := isModel(field.Type, "Event", "Message")
			if typ != "" && byValueAllowed[owner+name.Name] == "" {
				t.Errorf("%s: %s%s takes a model.%s by value; pass a pointer, or reserve the event with record and fill it in place",
					fset.Position(field.Pos()), owner, name.Name, typ)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					owner := ""
					if n.Recv != nil {
						recv := n.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						owner = recv.(*ast.Ident).Name + "."
					}
					checkParams(owner, n.Name, n.Type)
				case *ast.TypeSpec:
					if iface, ok := n.Type.(*ast.InterfaceType); ok {
						for _, m := range iface.Methods.List {
							if fn, ok := m.Type.(*ast.FuncType); ok {
								checkParams(n.Name.Name+".", m.Names[0], fn)
							}
						}
					}
				case *ast.CompositeLit:
					if isModel(n.Type, "Event") != "" {
						t.Errorf("%s: model.Event literal; reserve the event with record and fill it in place", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no functions found: the check is not looking at internal/sim")
	}
}
