package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Why an exported func or method that no program names is kept.
const (
	oracle = "test oracle: tests read it to inspect state the programs do not report"
	driver = "tests of retained behaviour drive it (ROADMAP item 10 keeps it)"
	item13 = "kept for ROADMAP item 13's fault-schedule fuzzer"
	iface  = "called through a standard interface"
)

// unusedExports lists the exported funcs and methods whose name no non-test
// file mentions outside their declaration, each with the reason it stays.
// Keys are "<dir>.<Func>" or "<dir>.<Type>.<Method>". The list only
// shrinks: a new unused export fails TestNoUnusedExports, and so does an
// entry whose name has gained a caller or is gone.
var unusedExports = map[string]string{
	"internal/chaos.Engine.RandomPartitions":      item13,
	"internal/chaos.Engine.SetSlow":               item13,
	"internal/chaos.Engine.SlowNodeAt":            item13,
	"internal/compute.Instance.Terminate":         driver,
	"internal/compute.Volume.IsWarm":              oracle,
	"internal/election.Node.Restart":              driver,
	"internal/faas.Ctx.Local":                     driver,
	"internal/faas.Platform.ProvisionedAllocated": oracle,
	"internal/faas.Platform.ProvisionedIdle":      oracle,
	"internal/faas.Platform.VMNodes":              oracle,
	"internal/faas.Platform.WarmIdle":             oracle,
	"internal/kvstore.GlobalTable.PendingWrites":  oracle,
	"internal/mlp.Network.AccumulateGradients":    driver,
	"internal/mlp.Network.NumParams":              oracle,
	"internal/mlp.PaperConfig":                    driver,
	"internal/msgnet.Mesh.Lookup":                 oracle,
	"internal/netsim.Fabric.InFlight":             oracle,
	"internal/netsim.Fabric.TransferAsync":        driver,
	"internal/netsim.Network.Regions":             oracle,
	"internal/netsim.Network.RegionsPartitioned":  oracle,
	"internal/objectstore.Store.Head":             driver,
	"internal/objectstore.Store.List":             driver,
	"internal/queue.Queue.Depth":                  oracle,
	"internal/queue.Queue.InFlight":               oracle,
	"internal/recon.Filter.Cells":                 oracle,
	"internal/resilience.Budget.Balance":          oracle,
	"internal/sim.Kernel.LiveProcs":               oracle,
	"internal/sim.Kernel.Pending":                 oracle,
	"internal/sim.Promise.Resolved":               oracle,
	"internal/simrand.RNG.Perm":                   driver,
	"internal/simrand.RNG.Shuffle":                driver,
	"internal/statecache.Cache.DirtyKeys":         oracle,
	"internal/statecache.Cache.GCounterValue":     oracle,
	"internal/statecache.Cache.IncGCounter":       driver,
	"internal/statecache.Cache.PeekGCounter":      oracle,
	"internal/statecache.Cache.RemoveSet":         driver,
	"internal/statecache.Cache.SetContains":       oracle,
	"internal/statecache.Cache.SetElements":       oracle,
	"internal/statecache.Cluster.CachedBytes":     oracle,
	"internal/statecache.Cluster.Replicas":        oracle,
	"internal/statecache.Cluster.StartedRounds":   item13,
	"internal/statecache.DecodeValue":             oracle,
	"internal/statecache.Value.SetElements":       oracle,
	"internal/sweep.PointError.Unwrap":            iface,
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

// sourceFile is one parsed non-test Go file and the directory of its package.
type sourceFile struct {
	path, dir string
	f         *ast.File
}

// sourceFiles parses every Go file outside bench/, testdata and the test
// files.
func sourceFiles(t *testing.T) []sourceFile {
	t.Helper()
	var files []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
// and the test files, whose name no non-test file mentions outside its
// declaration, unless unusedExports gives the reason it stays. The match is
// by name alone: a name used anywhere, for any receiver, counts as used.
func TestNoUnusedExports(t *testing.T) {
	files := map[string]string{} // export key -> declaring file
	names := map[string]string{} // export key -> func name
	named := map[string]bool{}   // names mentioned outside their declaration
	for _, sf := range sourceFiles(t) {
		decl := map[*ast.Ident]bool{}
		for _, d := range sf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			decl[fn.Name] = true
			key := sf.dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = sf.dir + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			files[key], names[key] = sf.path, fn.Name.Name
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	unused := map[string]bool{}
	for key, name := range names {
		if !named[name] {
			unused[key] = true
		}
	}
	checkAllowList(t, "unusedExports", unused, unusedExports, func(key string) string {
		return files[key] + ": exported " + key + " is named by no non-test file; use it, unexport or delete it, or give the reason it stays in unusedExports"
	})
}

// TestNoUnsetConfigFields fails on any exported field of an exported struct
// whose name ends in Config, outside bench/ and the test files, that no
// non-test file outside the declaring package sets, unless
// unsetConfigFields gives the reason it stays: a calibration no program
// varies is a constant, not a knob. A field counts as set where its name is
// a composite-literal key or a selector in an assignment's target (so
// cfg.DDB.ShardCount = n sets DDB and ShardCount). The match is by name
// alone, like TestNoUnusedExports's.
func TestNoUnsetConfigFields(t *testing.T) {
	files := map[string]string{}          // field key -> declaring file
	fields := map[string]string{}         // field key -> declaring dir
	setIn := map[string]map[string]bool{} // field name -> dirs that set it
	set := func(name, dir string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][dir] = true
	}
	target := func(x ast.Expr, dir string) {
		for {
			switch e := x.(type) {
			case *ast.SelectorExpr:
				set(e.Sel.Name, dir)
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
	for _, sf := range sourceFiles(t) {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !n.Name.IsExported() || !strings.HasSuffix(n.Name.Name, "Config") {
					break
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							key := sf.dir + "." + n.Name.Name + "." + id.Name
							files[key], fields[key] = sf.path, sf.dir
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id.Name, sf.dir)
				}
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					target(x, sf.dir)
				}
			case *ast.IncDecStmt:
				target(n.X, sf.dir)
			}
			return true
		})
	}
	unset := map[string]bool{}
	for key, dir := range fields {
		name := key[strings.LastIndexByte(key, '.')+1:]
		outside := false
		for d := range setIn[name] {
			outside = outside || d != dir
		}
		if !outside {
			unset[key] = true
		}
	}
	checkAllowList(t, "unsetConfigFields", unset, unsetConfigFields, func(key string) string {
		return files[key] + ": " + key + " is set by no non-test file outside its package; make it a constant, or give the reason it stays in unsetConfigFields"
	})
}

// recvType returns the name of a method receiver's type, without pointer
// or type parameters.
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
