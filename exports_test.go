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
	"internal/sim.Kernel.AtTimer":                 driver,
	"internal/sim.Kernel.LiveProcs":               oracle,
	"internal/sim.Kernel.Pending":                 oracle,
	"internal/sim.Proc.Yield":                     driver,
	"internal/sim.Promise.Resolved":               oracle,
	"internal/sim.Resource.TryAcquire":            driver,
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

// TestNoUnusedExports fails on any exported func or method, outside bench/
// and the test files, whose name no non-test file mentions outside its
// declaration, unless unusedExports gives the reason it stays. The match is
// by name alone: a name used anywhere, for any receiver, counts as used.
func TestNoUnusedExports(t *testing.T) {
	type export struct{ key, name, file string }
	var exports []export
	named := map[string]bool{} // names mentioned outside their declaration
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
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			decl[fn.Name] = true
			key := filepath.ToSlash(filepath.Dir(path)) + "." + fn.Name.Name
			if fn.Recv != nil {
				key = filepath.ToSlash(filepath.Dir(path)) + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			exports = append(exports, export{key: key, name: fn.Name.Name, file: path})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, e := range exports {
		if named[e.name] {
			continue
		}
		unused[e.key] = true
		if _, ok := unusedExports[e.key]; !ok {
			t.Errorf("%s: exported %s is named by no non-test file; use it, unexport or delete it, or give the reason it stays in unusedExports", e.file, e.key)
		}
	}
	var stale []string
	for key := range unusedExports {
		if !unused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("unusedExports lists %s, which is gone or has a caller now; drop the entry", key)
	}
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
