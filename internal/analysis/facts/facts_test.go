package facts_test

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"temporaldoc/internal/analysis/facts"
)

// fixtureFuncs type-checks a tiny source and returns its functions by
// name, so Put has real *types.Func keys.
func fixtureFuncs(t *testing.T, src string) map[string]*types.Func {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("fix/p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	fns := map[string]*types.Func{}
	for id, obj := range info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			fns[id.Name] = fn
		}
	}
	return fns
}

func TestRoundTrip(t *testing.T) {
	fns := fixtureFuncs(t, "package p\nfunc A() {}\nfunc B() {}\n")
	s := facts.NewStore()
	if err := s.Begin("fix/p"); err != nil {
		t.Fatal(err)
	}
	s.Put(fns["A"], "impure", "math/rand.Intn")

	// The open package sees its own facts live.
	if d, ok := s.GetFunc(fns["A"], "impure"); !ok || d != "math/rand.Intn" {
		t.Fatalf("open Get = %q, %v", d, ok)
	}
	if _, ok := s.GetFunc(fns["B"], "impure"); ok {
		t.Fatal("B should have no fact")
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Sealed facts remain visible — now through the serialized blob.
	if d, ok := s.GetFunc(fns["A"], "impure"); !ok || d != "math/rand.Intn" {
		t.Fatalf("sealed Get = %q, %v", d, ok)
	}
}

func TestSealDeterministic(t *testing.T) {
	fns := fixtureFuncs(t, "package p\nfunc A() {}\nfunc B() {}\nfunc C() {}\n")
	blob := func() []byte {
		s := facts.NewStore()
		if err := s.Begin("fix/p"); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"C", "A", "B"} {
			s.Put(fns[n], "impure", "src-"+n)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		return s.Sealed("fix/p")
	}
	a, b := blob(), blob()
	if !bytes.Equal(a, b) {
		t.Errorf("sealed blobs differ across runs:\n%s\n%s", a, b)
	}
}

func TestLifecycleErrors(t *testing.T) {
	s := facts.NewStore()
	if err := s.Seal(); err == nil {
		t.Error("Seal without Begin should fail")
	}
	if err := s.Begin("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("b"); err == nil {
		t.Error("Begin with a package still open should fail")
	}
}
