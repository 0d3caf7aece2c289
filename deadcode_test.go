// Reachability gate: CI runs these in the docs step of the quick gate.
// staticcheck's U1000 only sees unexported names, so an exported function
// under internal/ that only its own tests call would otherwise stay
// forever. The gate type-checks every program of the repo (the facade,
// cmd/ and the nested bench/ module) without their tests and fails on
// each exported internal declaration that none of them reaches.
package dlrmcomp_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow exempts exported internal declarations that no program
// reaches but that stay on purpose. Each key is a name as the gate prints
// it; each value is the reason it stays.
var deadcodeAllow = map[string]string{
	"cluster.Cluster.SimTime":    "reads one bucket in dist's TestCheckpointReshardParity, and parity tests stay byte-for-byte",
	"model.DLRM.Evaluate":        "the single-process reference of dist's eval-parity tests (one-rank, hierarchical, the one-rank overlapped clock); parity tests stay byte-for-byte",
	"tcptransport.endpoint.Kill": "the chaos API: tests sever a rank mid-collective to prove every survivor errors instead of deadlocking",
}

// TestNoUnreachedInternalExports fails on every exported function, method or
// type under internal/ (internal/testutil aside) that no non-test code
// reaches, and on every allowlist entry that no longer names one.
func TestNoUnreachedInternalExports(t *testing.T) {
	found, err := unreachedExports([]deadcodeModule{
		{path: "dlrmcomp", dir: "."},
		{path: "dlrmcomp/bench", dir: "bench"},
	}, "dlrmcomp/internal", "dlrmcomp/internal/testutil")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, f := range found {
		listed[f.name] = true
		if _, ok := deadcodeAllow[f.name]; !ok {
			t.Errorf("%s:%d: %s is exported but no program reaches it; delete it, move it into a _test.go file or internal/testutil, or allowlist it with a reason", f.pos.Filename, f.pos.Line, f.name)
		}
	}
	for name := range deadcodeAllow {
		if !listed[name] {
			t.Errorf("deadcodeAllow lists %s, which is reached or gone; drop the entry", name)
		}
	}
}

// TestDeadcodeGateFixture runs the gate over testdata/deadcode, a module
// whose library declares one function of each kind the gate must tell apart
// (reached, unreached, reached only from a test, reached only through an
// interface, reached only from unreached code), so a vacuous gate fails.
func TestDeadcodeGateFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadcode")
	found, err := unreachedExports([]deadcodeModule{{path: "fixture", dir: dir}}, "fixture/internal", "")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, fmt.Sprintf("%s:%d %s", f.pos.Filename, f.pos.Line, f.name))
	}
	lib := filepath.Join(dir, "internal", "lib", "lib.go")
	want := []string{
		lib + ":12 lib.Unreached",
		lib + ":15 lib.TestOnly",
		lib + ":18 lib.Transitive",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("gate over the fixture reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A deadcodeModule is one module tree the gate loads. Like the go tool, it
// skips testdata and directories named .* or _*; it also skips nested
// modules (subdirectories with their own go.mod): list one as a module of
// its own.
type deadcodeModule struct{ path, dir string }

// A deadcodeFinding is one unreached exported declaration.
type deadcodeFinding struct {
	pos  token.Position
	name string // pkg.Name, or pkg.Recv.Method for a method
}

// unreachedExports type-checks the non-test files of every package in mods
// and returns, in file:line order, the exported funcs, methods and types of
// the packages under prefix (except under exempt) that no program reaches.
//
// The roots are every main and init function, every package-level var
// initializer, and the exported funcs, types and methods declared by
// importable packages outside prefix (the facade). A facade alias
// re-exports a type, not its methods. From the roots reachability is
// transitive over objects resolved by type, not by name; a method's
// receiver does not reach its own type; and a method of a reached type is
// reached when some interface declares its name, since a dynamic call may
// land on it.
func unreachedExports(mods []deadcodeModule, prefix, exempt string) ([]deadcodeFinding, error) {
	l := &deadcodeLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[*types.Package]*types.Info{},
		decls: map[types.Object]deadcodeDecl{},
	}
	var paths []string
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != m.dir {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			rel, err := filepath.Rel(m.dir, p)
			if err != nil {
				return err
			}
			ip := path.Join(m.path, filepath.ToSlash(rel))
			l.dirs[ip] = p
			paths = append(paths, ip)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ip := range paths {
		if _, err := l.load(ip); err != nil {
			return nil, err
		}
	}
	under := func(ip, dir string) bool { return ip == dir || strings.HasPrefix(ip, dir+"/") }

	// Every method name that some interface declares: the loaded code's
	// interfaces (named or literal), every package it imports, and error.
	ifaceNames := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	scanned := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if scanned[p] {
			return
		}
		scanned[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if _, ok := l.decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	for p, info := range l.infos {
		scan(p)
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	for obj, d := range l.decls {
		api := obj.Exported() && obj.Pkg().Name() != "main" && !under(obj.Pkg().Path(), prefix) &&
			(!isMethod(obj) || recvNamed(obj).Obj().Exported())
		if d.root || api {
			mark(obj)
		}
	}

	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); ifaceNames[m.Name()] {
						mark(m)
					}
				}
			}
		}
		d := l.decls[obj]
		uses := func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := d.info.Uses[id]; u != nil {
					mark(u)
				}
			}
			return true
		}
		if fd, ok := d.node.(*ast.FuncDecl); ok {
			// Skip fd.Recv: the receiver does not reach its own type.
			ast.Inspect(fd.Type, uses)
			if fd.Body != nil {
				ast.Inspect(fd.Body, uses)
			}
		} else {
			ast.Inspect(d.node, uses)
		}
	}

	var found []deadcodeFinding
	for obj := range l.decls {
		ip := obj.Pkg().Path()
		if reached[obj] || !obj.Exported() || !under(ip, prefix) || (exempt != "" && under(ip, exempt)) {
			continue
		}
		var name string
		switch {
		case isMethod(obj):
			name = obj.Pkg().Name() + "." + recvNamed(obj).Obj().Name() + "." + obj.Name()
		case isFuncOrType(obj):
			name = obj.Pkg().Name() + "." + obj.Name()
		default:
			continue // vars are roots; consts carry no code
		}
		found = append(found, deadcodeFinding{pos: l.fset.Position(obj.Pos()), name: name})
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return found, nil
}

func isFuncOrType(obj types.Object) bool {
	switch obj.(type) {
	case *types.Func, *types.TypeName:
		return true
	}
	return false
}

func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// recvNamed returns the named type a method is declared on.
func recvNamed(obj types.Object) *types.Named {
	t := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// A deadcodeDecl is the declaration of one package-level object: what the
// gate walks once the object is reached.
type deadcodeDecl struct {
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	info *types.Info
	root bool // main, init, or a var whose initializer runs at start-up
}

// deadcodeLoader type-checks the modules' packages from source, each once,
// and the standard library from export data.
type deadcodeLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string         // import path -> directory, for the modules' packages
	pkgs  map[string]*types.Package // loaded so far; nil for a directory without Go files
	infos map[*types.Package]*types.Info
	decls map[types.Object]deadcodeDecl
}

func (l *deadcodeLoader) Import(ip string) (*types.Package, error) {
	if _, ok := l.dirs[ip]; !ok {
		return l.std.Import(ip)
	}
	p, err := l.load(ip)
	if err == nil && p == nil {
		err = fmt.Errorf("no Go files for %s", ip)
	}
	return p, err
}

// load type-checks the package at import path ip, built from the non-test
// files that build.Default selects.
func (l *deadcodeLoader) load(ip string) (*types.Package, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	l.pkgs[ip] = nil
	dir := l.dirs[ip]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{Importer: l}).Check(ip, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", ip, err)
	}
	l.infos[p] = info
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				root := d.Recv == nil && (name == "init" || name == "main" && p.Name() == "main")
				l.decls[info.Defs[d.Name]] = deadcodeDecl{node: d, info: info, root: root}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						l.decls[info.Defs[s.Name]] = deadcodeDecl{node: s, info: info}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							l.decls[info.Defs[n]] = deadcodeDecl{node: s, info: info, root: d.Tok == token.VAR}
						}
					}
				}
			}
		}
	}
	l.pkgs[ip] = p
	return p, nil
}
