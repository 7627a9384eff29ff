package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Why an exported func or method that no program calls is kept. Each
// reason says a test calls it, and TestUnusedExportReasons checks that one
// does.
const (
	oracle = "test oracle: tests read it to inspect state the programs do not report"
	driver = "tests of retained behaviour drive it (ROADMAP item 10 keeps it)"
	item13 = "kept for ROADMAP item 13's fault-schedule fuzzer; the chaos tests drive it"
)

// unusedExports lists the exported funcs and methods that no program calls,
// each with the reason it stays. Keys are "<dir>.<Func>" or
// "<dir>.<Type>.<Method>". The list only shrinks: a new unused export fails
// TestNoUnusedExports, and so does an entry that has gained a caller or is
// gone.
var unusedExports = map[string]string{
	"internal/chaos.Engine.RandomPartitions":     item13,
	"internal/chaos.Engine.SetSlow":              item13,
	"internal/chaos.Engine.Slow":                 item13,
	"internal/chaos.Engine.SlowNodeAt":           item13,
	"internal/compute.Instance.Terminate":        driver,
	"internal/core.Table.Value":                  oracle,
	"internal/election.BBTransport.Remove":       driver,
	"internal/election.DirectTransport.Close":    driver,
	"internal/election.Node.Restart":             driver,
	"internal/faas.Ctx.Local":                    driver,
	"internal/faas.Platform.ProvisionedIdle":     oracle,
	"internal/faas.Platform.VMNodes":             oracle,
	"internal/faas.Platform.WarmIdle":            oracle,
	"internal/kvstore.GlobalTable.PendingWrites": oracle,
	"internal/kvstore.Store.Len":                 oracle,
	"internal/loadgen.Zipf.Sample":               driver,
	"internal/mlp.Network.AccumulateGradients":   driver,
	"internal/mlp.Network.NumParams":             oracle,
	"internal/mlp.PaperConfig":                   driver,
	"internal/msgnet.Endpoint.Node":              oracle,
	"internal/msgnet.Mesh.Lookup":                oracle,
	"internal/netsim.Fabric.InFlight":            oracle,
	"internal/netsim.Fabric.TransferAsync":       driver,
	"internal/netsim.Network.Regions":            oracle,
	"internal/netsim.Network.RegionsPartitioned": oracle,
	"internal/objectstore.Store.Delete":          driver,
	"internal/objectstore.Store.Head":            driver,
	"internal/objectstore.Store.List":            driver,
	"internal/queue.Queue.Depth":                 oracle,
	"internal/queue.Queue.InFlight":              oracle,
	"internal/recon.Filter.Cells":                oracle,
	"internal/resilience.Budget.Balance":         oracle,
	"internal/resilience.Client.Stats":           oracle,
	"internal/service.Frontend.ChargeCost":       driver,
	"internal/service.Frontend.Meter":            driver,
	"internal/sim.Kernel.LiveProcs":              oracle,
	"internal/sim.Kernel.Pending":                oracle,
	"internal/sim.Promise.Resolved":              oracle,
	"internal/sim.Ring.At":                       oracle,
	"internal/sim.Signal.Waiting":                oracle,
	"internal/simrand.RNG.Perm":                  driver,
	"internal/simrand.RNG.Shuffle":               driver,
	"internal/statecache.Cache.GCounterValue":    oracle,
	"internal/statecache.Cache.IncGCounter":      driver,
	"internal/statecache.Cache.PeekGCounter":     oracle,
	"internal/statecache.Cache.Register":         oracle,
	"internal/statecache.Cache.RemoveSet":        driver,
	"internal/statecache.Cache.SetContains":      oracle,
	"internal/statecache.Cache.SetElements":      oracle,
	"internal/statecache.Cluster.Replicas":       oracle,
	"internal/statecache.Cluster.StartedRounds":  item13,
	"internal/statecache.DecodeValue":            oracle,
	"internal/statecache.Value.Counter":          oracle,
}

// unsetConfigFields lists the exported fields of exported *Config structs
// that no non-test file outside the declaring package sets, each with the
// reason it stays. Keys are "<dir>.<Type>.<Field>". Like unusedExports, the
// list only shrinks.
var unsetConfigFields = map[string]string{
	"internal/core.Config.DDB":               "set by core's own sharded experiments (regionscale, faasscale, millionuser)",
	"internal/kvstore.Config.ReplicationLag": "the crdt and core tests set it to drive stale eventual reads",
	"internal/objectstore.Config.PerConnBps": "the faas integration test lifts it so the VM NIC is the only bottleneck",
}

// modulePath is the module's import path; bench/ is module repro/bench, so
// "<modulePath>/<dir>" is every package's import path.
const modulePath = "repro"

// pkg is one directory's package. Its non-test files are type-checked once,
// and then again with its test files added.
type pkg struct {
	dir, path string
	files     []*ast.File // non-test files
	tests     []*ast.File // _test.go files
	types     *types.Package
	info      *types.Info // the non-test check's definitions and uses
	testInfo  *types.Info // the check with the test files added: uses
	checking  bool
}

// module holds the module's packages and bench/'s, type-checked.
type module struct {
	fset   *token.FileSet
	pkgs   []*pkg // sorted by import path
	byPath map[string]*pkg
	std    types.Importer
}

var (
	loadOnce  sync.Once
	loaded    *module
	loadError error
)

// loadModule parses every Go file outside testdata that the default build
// context selects, type-checks each package's non-test files in import
// order, then each package again with its test files. The tests in this
// file share the result.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadError = parseModule() })
	if loadError != nil {
		t.Fatal(loadError)
	}
	return loaded
}

func parseModule() (*module, error) {
	m := &module{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	stdPaths := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ip := strings.Trim(imp.Path.Value, `"`); !inModule(ip) {
				stdPaths[ip] = true
			}
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := modulePath
		if dir != "." {
			ip += "/" + dir
		}
		p := m.byPath[ip]
		if p == nil {
			p = &pkg{dir: dir, path: ip}
			m.byPath[ip] = p
			m.pkgs = append(m.pkgs, p)
		}
		if strings.HasSuffix(path, "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if m.std, err = stdImporter(m.fset, stdPaths); err != nil {
		return nil, err
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })
	for _, p := range m.pkgs {
		if _, err := m.Import(p.path); err != nil {
			return nil, err
		}
	}
	for _, p := range m.pkgs {
		if len(p.tests) == 0 {
			continue
		}
		p.testInfo = &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: m}
		if _, err := conf.Check(p.path, m.fset, slices.Concat(p.files, p.tests), p.testInfo); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stdImporter returns an importer of the standard library's export data
// for paths and their dependencies, located by one "go list -export" run
// (importer.Default runs go list once per package).
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, os.ErrNotExist
		}
		return os.Open(export[path])
	}), nil
}

// Import returns a package of the module, type-checking its non-test files
// the first time it is asked for, or else a standard library package.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.byPath[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, errors.New("import cycle through " + path)
	}
	p.checking = true
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	var err error
	p.types, err = conf.Check(p.path, m.fset, p.files, p.info)
	return p.types, err
}

// inModule reports whether an import path is the module's or bench/'s.
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// declaresAPI reports whether the checks cover p's declarations: bench/
// calls the module, and its own API is no one's concern.
func (p *pkg) declaresAPI() bool { return p.dir != "bench" }

// funcKey returns the unusedExports key of a func or of a method of a
// named non-interface type declared in the module, or "". It names the
// generic origin, so a method has the same key in every check.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil || !inModule(fn.Pkg().Path()) {
		return ""
	}
	key := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath), "/")
	if key == "" {
		key = "."
	}
	key += "."
	if recv := fn.Signature().Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil || types.IsInterface(named) {
			return ""
		}
		key += named.Obj().Name() + "."
	}
	return key + fn.Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// stdContracts are the interface methods the standard library calls on a
// program's values without the program naming them: fmt's String, and
// errors.Is and errors.As's Unwrap.
func stdContracts(m *module) []*types.Func {
	fmtPkg, err := m.std.Import("fmt")
	if err != nil {
		panic(err)
	}
	stringer := fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false)
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	return []*types.Func{stringer.Method(0), unwrap.Method(0)}
}

// checkAllowList fails on every key in found that allow does not list, with
// the message complain(key), and on every key allow lists that found does
// not hold.
func checkAllowList(t *testing.T, name string, found map[string]bool, allow map[string]string, complain func(key string) string) {
	t.Helper()
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := allow[key]; !ok {
			t.Error(complain(key))
		}
	}
	var stale []string
	for key := range allow {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("%s lists %s, which is gone or no longer qualifies; drop the entry", name, key)
	}
}

// TestNoUnusedExports fails on any exported func or method, outside bench/
// and the test files, that no program calls, unless unusedExports gives the
// reason it stays. The programs are the non-test files of the module and of
// bench/. A func or method is called when an identifier in a program
// resolves to it, or when it implements an interface method that a program
// calls or that stdContracts lists. Methods of interface types are out of
// scope.
func TestNoUnusedExports(t *testing.T) {
	m := loadModule(t)
	declared := map[string]*types.Func{}
	used := map[string]bool{}
	called := stdContracts(m) // interface methods a program calls
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if key := funcKey(fn); key != "" {
				used[key] = true
			} else if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
		if !p.declaresAPI() {
			continue
		}
		for id, obj := range p.info.Defs {
			if fn, ok := obj.(*types.Func); ok && id.IsExported() {
				if key := funcKey(fn); key != "" {
					declared[key] = fn
				}
			}
		}
	}
	unused := map[string]bool{}
	for key, fn := range declared {
		if !used[key] && !implementsCalled(fn, called) {
			unused[key] = true
		}
	}
	checkAllowList(t, "unusedExports", unused, unusedExports, func(key string) string {
		return m.fset.Position(declared[key].Pos()).Filename + ": exported " + key + " is called by no program; use it, unexport or delete it, or give the reason it stays in unusedExports"
	})
}

// implementsCalled reports whether method fn's receiver type, or a pointer
// to it, implements the interface of a method in called that has fn's name.
func implementsCalled(fn *types.Func, called []*types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	for _, c := range called {
		if c.Name() != fn.Name() {
			continue
		}
		it := c.Signature().Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// TestUnusedExportReasons fails on an unusedExports entry that no test
// calls: every reason says tests use the entry, and a reason must not
// outlive its last caller.
func TestUnusedExportReasons(t *testing.T) {
	m := loadModule(t)
	tested := map[string]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := p.testInfo.Uses[id].(*types.Func); ok {
						tested[funcKey(fn)] = true
					}
				}
				return true
			})
		}
	}
	var keys []string
	for key := range unusedExports {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !tested[key] {
			t.Errorf("unusedExports keeps %s because %q, but no test calls it; delete it and drop the entry", key, unusedExports[key])
		}
	}
}

// TestNoUnsetConfigFields fails on any exported field of an exported struct
// whose name ends in Config, outside bench/ and the test files, that no
// non-test file outside the declaring package sets, unless
// unsetConfigFields gives the reason it stays: a calibration no program
// varies is a constant, not a knob. A field is set where a composite-literal
// key or a selector in an assignment's target resolves to it (so
// cfg.DDB.ShardCount = n sets core.Config.DDB and kvstore.Config.ShardCount,
// and no other struct's ShardCount).
func TestNoUnsetConfigFields(t *testing.T) {
	m := loadModule(t)
	fields := map[*types.Var]string{} // field -> unsetConfigFields key
	for _, p := range m.pkgs {
		if !p.declaresAPI() {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = p.dir + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[string]bool{}
	for _, p := range m.pkgs {
		mark := func(id *ast.Ident) {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.Pkg() != p.types {
				if key := fields[v.Origin()]; key != "" {
					set[key] = true
				}
			}
		}
		target := func(x ast.Expr) {
			for {
				switch e := x.(type) {
				case *ast.SelectorExpr:
					mark(e.Sel)
					x = e.X
				case *ast.IndexExpr:
					x = e.X
				case *ast.StarExpr:
					x = e.X
				case *ast.ParenExpr:
					x = e.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(id)
					}
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						target(x)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
	}
	unset := map[string]bool{}
	where := map[string]string{} // unset key -> declaring file
	for f, key := range fields {
		if !set[key] {
			unset[key], where[key] = true, m.fset.Position(f.Pos()).Filename
		}
	}
	checkAllowList(t, "unsetConfigFields", unset, unsetConfigFields, func(key string) string {
		return where[key] + ": " + key + " is set by no non-test file outside its package; make it a constant, or give the reason it stays in unsetConfigFields"
	})
}
