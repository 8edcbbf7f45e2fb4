package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// auditAllow is the whole list of functions under internal/ and cmd/
// that may live without a non-test caller: reference implementations a
// differential test compares the served code against, and the test seams:
// a fixture, an injected timestamp a golden needs, and the manual clock
// (service.Config.Clock) tests step the control loops on. A row whose
// function is gone, or has gained a caller, fails the test, so the list
// can only shrink. ISSUE 22 caps it at 25 rows.
var auditAllow = []struct{ fn, reason string }{
	{"internal/automata.Runner.FinalsActive", "TestBuildDFAEquivalence, TestPropDFAEqualsNFAOnRandomPatterns: the per-cycle report count of the NFA, which the DFA's must equal"},
	{"internal/charclass.Code.Class", "TestPropEncodeCoversExactly: the bytes a CAM code stands for, which the emitted codes must tile the class with"},
	{"internal/charclass.Code.Matches", "TestPropCodeMatchAgreesWithClass: the CAM's two-nibble match rule the encoding is checked against"},
	{"internal/charclass.Encode", "FuzzEncodeEquivalence (checkEncode): the code list FirstCode/NumCodes derive from, against the 256-probe reference"},
	{"internal/clock.Manual.Advance", "TestManualRunsLoopsInTimeOrder, TestOverloadExperiment, TestScanAdmissionRetryAfterHeader, TestClusterMemberAging, TestCanaryWindow and every cluster test (testCluster.rounds): the only way a manual clock moves"},
	{"internal/clock.Manual.BlockUntil", "TestManualBlockUntil, TestCanaryWindow, TestClusterEndToEnd, TestRepairReusesOriginalRuleset (testCluster.rollout): knowing the canary watch waits on the clock"},
	{"internal/clock.NewManual", "TestOverloadExperiment, TestScanAdmissionRetryAfterHeader, TestMonitorHandlerServesHandlersRoutes, the qos bucket tests (testRegistry) and every cluster test (startCluster): a clock that moves only when the test moves it"},
	{"internal/compile.Result.Fingerprint", "TestIncrementalEqualsCold, TestRecompileEqualsCompile, TestDatasetFingerprintsPinned: identity of a compile"},
	{"internal/metrics.Histogram.ObserveValueExemplarAt", "TestWriteOpenMetricsGolden: the injected exemplar timestamp the golden exposition needs"},
	{"internal/nbva.Machine.MatchEnds", "TestPropNBVAEquivalentToUnfoldedNFA, TestPropCounterEqualsBitVector: the one-shot Step reference"},
	{"internal/nbva.Machine.MatchEndsCounter", "TestPropCounterEqualsBitVector: counter-set semantics (§2.2) the bit-vector machine must equal"},
	{"internal/reconfig.Apply", "FuzzParseDelta, TestWireFormatGolden (checkApply): Apply(Diff(old, new), old) == new is the delta's contract"},
	{"internal/reconfig.ParseDelta", "FuzzParseDelta: the round-trip reference of Delta.MarshalBinary (the service prices a delta by SizeBytes and emits no RAPD bytes)"},
	{"internal/regexast.MustParse", "fixture of 13 test files (TestBuildDFAEquivalence, TestFeedEqualEndOrder, ...): a known-good pattern or a panic"},
	{"internal/regexast.String", "FuzzParse (render), TestPropPrintParseStable: print then re-parse must give the identical AST"},
}

// TestEveryFunctionHasACaller type-checks every non-test file of the
// module and fails on a function or method under internal/ or cmd/ that
// nothing outside its own body refers to. Methods that satisfy an
// interface (the module's or the standard library's) are called through
// it and skipped; pkg/ is public API; bench/ledger, examples/ and pkg/
// count as callers. A function only its unit tests call is surface with
// no evidence: delete it with those tests, or give it an auditAllow row
// naming the test that needs it as a reference.
func TestEveryFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and net/http from source")
	}
	dead, err := uncalledFunctions(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(auditAllow) > 25 {
		t.Errorf("auditAllow has %d rows, the cap is 25", len(auditAllow))
	}
	allowed := map[string]bool{}
	for _, a := range auditAllow {
		allowed[a.fn] = true
		if a.reason == "" {
			t.Errorf("auditAllow: %s has no reason", a.fn)
		}
		if _, ok := dead[a.fn]; !ok {
			t.Errorf("auditAllow: %s is gone or has a caller now; drop the row", a.fn)
		}
	}
	var names []string
	lines := 0
	for fn, d := range dead {
		if !allowed[fn] {
			names = append(names, fmt.Sprintf("%s (%s, %d lines)", fn, d.pos, d.lines))
			lines += d.lines
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Errorf("%d functions (%d lines) have no non-test caller:\n  %s", len(names), lines, strings.Join(names, "\n  "))
	}
}

// TestAuditAllowNamesLiveTests: every test, fuzz target or benchmark an
// auditAllow reason names is declared in a test file of the module, so
// a row cannot keep citing a test that was deleted.
func TestAuditAllowNamesLiveTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	for _, a := range auditAllow {
		for _, name := range cited.FindAllString(a.reason, -1) {
			if !declared[name] {
				t.Errorf("auditAllow: %s cites %s, which no test file declares", a.fn, name)
			}
		}
	}
}

type deadFunc struct {
	pos   string
	lines int
}

// moduleLoader type-checks the module's packages from source, sharing
// one object graph so a use in one package resolves to the declaration
// in another; everything outside the module goes to the source importer.
type moduleLoader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*types.Package
	infos     map[string]*types.Info
	files     map[string][]*ast.File
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/"))
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
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.infos[path], l.files[path] = p, info, files
	return p, nil
}

func uncalledFunctions(root string) (map[string]deadFunc, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := strings.Fields(string(gomod))[1]
	// The source importer reads build.Default; without cgo it needs no C
	// compiler and picks the pure-Go files of net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &moduleLoader{
		root: root, mod: mod, fset: fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		goFiles, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range goFiles {
			if !strings.HasSuffix(f, "_test.go") {
				rel, _ := filepath.Rel(root, path)
				_, err := l.Import(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."))
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Interfaces a method could be called through, by method name: every
	// named interface of every package in the import graph, and every
	// interface type written inline in the module.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	// error lives in no package scope, and errors.Is/As/Unwrap find the
	// Unwrap forms by type assertion inside the standard library.
	errT := types.Universe.Lookup("error").Type()
	addIface(errT.Underlying().(*types.Interface))
	for _, res := range []types.Type{errT, types.NewSlice(errT)} {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
		addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete())
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	used := map[*types.Func]bool{}
	for path, p := range l.pkgs {
		visit(p)
		info := l.infos[path]
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				addIface(it)
			}
		}
		// A use inside the function's own declaration (recursion) is not
		// a caller.
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		T := recv.Type()
		if p, ok := T.(*types.Pointer); ok {
			T = p.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(T, it) || types.Implements(types.NewPointer(T), it) {
				return true
			}
		}
		return false
	}

	dead := map[string]deadFunc{}
	for path, info := range l.infos {
		rel := strings.TrimPrefix(path, mod+"/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "main" || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				if used[fn] || viaInterface(fn) {
					continue
				}
				name := rel + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					T := recv.Type()
					if p, ok := T.(*types.Pointer); ok {
						T = p.Elem()
					}
					name = rel + "." + T.(*types.Named).Obj().Name() + "." + fd.Name.Name
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				dead[name] = deadFunc{
					pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(start.Filename), start.Line),
					lines: end.Line - start.Line + 1,
				}
			}
		}
	}
	return dead, nil
}
