package atmcac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations that need no user
// outside tests, each with its reason. A key is a package directory
// relative to the module root (every exported name of that package) or
// "dir.Name" (one declaration).
var surfaceAllowlist = map[string]string{
	"internal/baseline": "the Section 1 peak-allocation strawman: its tests against the CAC are its purpose",

	"internal/faultinject.New":            "the scripted fail/restore harness, run by its tests and CI",
	"internal/faultinject.CrashHarness":   "the crash-at-every-persistence-boundary soak, run by its tests and CI",
	"internal/faultinject.ReplicaHarness": "the primary/standby takeover soak, run by its tests and CI",
	"internal/faultinject.ShardHarness":   "the 2PC boundary sweep, run by its tests and CI",
	"internal/faultinject.HAShardHarness": "the replicated-shard and coordinator takeover sweep, run by its tests and CI",

	"internal/faultinject.ShardPrePrepare":  "a 2PC crash point the shard sweeps arm",
	"internal/faultinject.ShardPostPrepare": "a 2PC crash point the shard sweeps arm",
	"internal/faultinject.ShardPreCommit":   "a 2PC crash point the shard sweeps arm",
	"internal/faultinject.ShardMidCommit":   "a 2PC crash point the shard sweeps arm",
	"internal/faultinject.ShardPostCommit":  "a 2PC crash point the shard sweeps arm",

	"internal/workload.Churn": "the seeded churn schedule that workload's and replica's property tests share",
}

// forbiddenRootDeps are the fleet packages the paper's library must not
// link: fault injection, the sharded and replicated control plane, and the
// scenario, planning and ablation harnesses.
var forbiddenRootDeps = []string{
	"internal/faultinject", "internal/shard", "internal/replica",
	"internal/workload", "internal/plan", "internal/ablation",
}

// TestExportedSurface keeps the exported surface the used surface: every
// exported top-level name of a library package has a user outside tests
// (or in an Example function), and the root package does not link the
// fleet.
func TestExportedSurface(t *testing.T) {
	tree, err := parseTree(".", "atmcac")
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := checkSurface(tree.unusedExports(), surfaceAllowlist)
	for _, name := range unused {
		t.Errorf("exported %s has no user outside tests; delete it or allowlist it with a reason", name)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %q covers no unused export; delete it", key)
	}
	deps := tree.deps("atmcac")
	for _, dir := range forbiddenRootDeps {
		if deps["atmcac/"+dir] {
			t.Errorf("package atmcac depends on atmcac/%s", dir)
		}
	}
}

// TestExportedSurfaceReportsPlanted runs the check on a planted tree: an
// export that only a test uses is reported, an allowlisted one is not, and
// an allowlist entry for a used export is stale.
func TestExportedSurfaceReportsPlanted(t *testing.T) {
	tree, err := parseTree(filepath.Join("testdata", "surface"), "planted")
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := checkSurface(tree.unusedExports(), map[string]string{
		"lib.Allowed": "planted allowlist entry",
		"lib.Used":    "planted stale entry",
	})
	if want := []string{"lib.Unused"}; !reflect.DeepEqual(unused, want) {
		t.Errorf("unused exports = %v, want %v", unused, want)
	}
	if want := []string{"lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale allowlist entries = %v, want %v", stale, want)
	}
	if deps := tree.deps("planted/app"); !deps["planted/lib"] || deps["planted/other"] {
		t.Errorf("deps of planted/app = %v, want planted/lib and not planted/other", deps)
	}
}

// checkSurface splits unused exports ("dir.Name") into those no allowlist
// entry covers and returns, too, the entries that cover none of them.
func checkSurface(unused []string, allow map[string]string) (uncovered, stale []string) {
	hit := map[string]bool{}
	for _, name := range unused {
		dir := name[:strings.LastIndex(name, ".")]
		switch {
		case allow[name] != "":
			hit[name] = true
		case allow[dir] != "":
			hit[dir] = true
		default:
			uncovered = append(uncovered, name)
		}
	}
	for key := range allow {
		if !hit[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return uncovered, stale
}

// srcPkg is one package directory of a parsed source tree.
type srcPkg struct {
	dir   string // relative to the module root, "." for the root
	name  string
	files []*ast.File // non-test files
	tests []*ast.File
}

// srcTree is every package of one module, parsed from source.
type srcTree struct {
	module string
	pkgs   map[string]*srcPkg // by import path
}

// parseTree parses every package under root, skipping testdata, hidden
// directories and nested modules.
func parseTree(root, module string) (*srcTree, error) {
	tree := &srcTree{module: module, pkgs: map[string]*srcPkg{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		ip := module
		if rel != "." {
			ip = module + "/" + rel
		}
		pkg := tree.pkgs[ip]
		if pkg == nil {
			pkg = &srcPkg{dir: rel}
			tree.pkgs[ip] = pkg
		}
		if strings.HasSuffix(p, "_test.go") {
			pkg.tests = append(pkg.tests, f)
		} else {
			pkg.files = append(pkg.files, f)
			pkg.name = f.Name.Name
		}
		return nil
	})
	return tree, err
}

// unusedExports lists, as "dir.Name" with dir relative to the module
// root, every exported top-level declaration of a non-main package that
// nothing references outside its own declaration, except from tests other
// than Example functions.
func (t *srcTree) unusedExports() []string {
	used := map[string]bool{}
	for ip, pkg := range t.pkgs {
		for _, f := range pkg.files {
			t.collectRefs(ip, f, false, used)
		}
		for _, f := range pkg.tests {
			t.collectRefs(ip, f, true, used)
		}
	}
	var unused []string
	for ip, pkg := range t.pkgs {
		if pkg.name == "main" || pkg.name == "" {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				for _, id := range declNames(decl) {
					if id.IsExported() && !used[ip+"."+id.Name] {
						unused = append(unused, pkg.dir+"."+id.Name)
					}
				}
			}
		}
	}
	sort.Strings(unused)
	return unused
}

// declNames returns the top-level names a declaration introduces
// (methods introduce none).
func declNames(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	return ids
}

// collectRefs marks in used every module declaration file f references.
// A test file counts only through its Example functions, which also use
// the identifier their name documents. A reference from inside a name's
// own declaration (for a type, its methods too) does not count.
func (t *srcTree) collectRefs(ip string, f *ast.File, test bool, used map[string]bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		if p != t.module && !strings.HasPrefix(p, t.module+"/") {
			continue
		}
		local := path.Base(p)
		if pkg := t.pkgs[p]; pkg != nil && pkg.name != "" {
			local = pkg.name
		}
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = p
	}
	bare := !strings.HasSuffix(f.Name.Name, "_test") // bare identifiers name ip's declarations
	for _, decl := range f.Decls {
		var owners []*ast.Ident
		if fn, ok := decl.(*ast.FuncDecl); ok {
			if test {
				name, ok := strings.CutPrefix(fn.Name.Name, "Example")
				if !ok || fn.Recv != nil {
					continue
				}
				if target, _, _ := strings.Cut(name, "_"); target != "" {
					used[ip+"."+target] = true
				}
			} else if fn.Recv != nil {
				owners = append(owners, recvType(fn.Recv))
			}
		} else if test {
			continue
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // not the function's own name
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field: // not field or parameter names
				ast.Inspect(n.Type, visit)
				return false
			case *ast.SelectorExpr: // not the selected field or method
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Ident:
				if bare && !owns(owners, n) {
					used[ip+"."+n.Name] = true
				}
			}
			return true
		}
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs { // each spec owns only its own names
				owners = declNames(&ast.GenDecl{Specs: []ast.Spec{spec}})
				ast.Inspect(spec, visit)
			}
			continue
		}
		owners = append(owners, declNames(decl)...)
		ast.Inspect(decl, visit)
	}
}

// recvType is the base type name of a method receiver.
func recvType(recv *ast.FieldList) *ast.Ident {
	x := recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// owns reports whether id is, or refers to, one of the declaration's own
// names.
func owns(owners []*ast.Ident, id *ast.Ident) bool {
	for _, o := range owners {
		if o != nil && o.Name == id.Name {
			return true
		}
	}
	return false
}

// deps is the set of module packages that from imports, directly or not,
// through non-test files.
func (t *srcTree) deps(from string) map[string]bool {
	seen := map[string]bool{}
	var walk func(ip string)
	walk = func(ip string) {
		pkg := t.pkgs[ip]
		if pkg == nil {
			return
		}
		for _, f := range pkg.files {
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if t.pkgs[p] != nil && !seen[p] {
					seen[p] = true
					walk(p)
				}
			}
		}
	}
	walk(from)
	return seen
}
