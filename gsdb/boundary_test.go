package gsdb_test

import (
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundary enforces the public-API layering: examples/ may import
// only groupsafe/gsdb and its subpackages (they show what code outside the
// module can do), while the repository's own tools under cmd/ may import any
// package they drive.  The gsdb packages themselves — the deliberate bridge —
// may only import the specific internal packages they wrap, so new internals
// cannot leak into the public surface by accident.
func TestImportBoundary(t *testing.T) {
	root := repoRoot(t)

	walkGoFiles(t, filepath.Join(root, "examples"), func(file string, imports []string) {
		for _, imp := range imports {
			if strings.HasPrefix(imp, "groupsafe/") && imp != "groupsafe/gsdb" && !strings.HasPrefix(imp, "groupsafe/gsdb/") {
				t.Errorf("%s imports %s: examples/ must use the public gsdb API", rel(root, file), imp)
			}
		}
	})

	// The bridge: per-package whitelist of wrapped internals.
	allowed := map[string][]string{
		"gsdb": {
			"groupsafe/internal/core",
			"groupsafe/internal/workload",
			"groupsafe/internal/netproto",
		},
		"gsdb/server": {"groupsafe/internal/server"},
	}
	for pkgDir, whitelist := range allowed {
		walkGoFiles(t, filepath.Join(root, pkgDir), func(file string, imports []string) {
			if filepath.Dir(file) != filepath.Join(root, pkgDir) {
				return // subpackages have their own entry
			}
			for _, imp := range imports {
				if !strings.HasPrefix(imp, "groupsafe/internal/") {
					continue
				}
				ok := false
				for _, w := range whitelist {
					if imp == w {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("%s imports %s, which is not in the %s whitelist — widen the surface deliberately or route through an existing wrapper", rel(root, file), imp, pkgDir)
				}
			}
		})
	}
}

// TestProductDependencies checks what the product links, transitively: no
// package reachable from the public API, the two product commands or the
// examples may depend on the keyspace-partitioning experiment, which only the
// fuzzer and the benchmark build.  Imports are resolved for the default build
// context, as `go list -deps` resolves them.
func TestProductDependencies(t *testing.T) {
	root := repoRoot(t)
	const forbidden = "groupsafe/internal/partition"
	roots := []string{"groupsafe/gsdb", "groupsafe/gsdb/server", "groupsafe/cmd/gsdb-demo", "groupsafe/cmd/gsdb-server"}
	examples, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range examples {
		if e.IsDir() {
			roots = append(roots, "groupsafe/examples/"+e.Name())
		}
	}

	// via maps each reached module package to the package that first
	// imported it, so a failure names the whole chain.
	via := make(map[string]string)
	queue := append([]string(nil), roots...)
	for _, r := range roots {
		via[r] = ""
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.Default.ImportDir(filepath.Join(root, strings.TrimPrefix(path, "groupsafe/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; seen || !strings.HasPrefix(imp, "groupsafe/") {
				continue
			}
			via[imp] = path
			queue = append(queue, imp)
		}
	}
	if _, reached := via[forbidden]; reached {
		chain := forbidden
		for p := via[forbidden]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("the product depends on %s: %s", forbidden, chain)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd() // the gsdb package directory when run under go test
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found from %s: %v", wd, err)
	}
	return root
}

func rel(root, file string) string {
	r, err := filepath.Rel(root, file)
	if err != nil {
		return file
	}
	return r
}

// walkGoFiles parses the imports of every non-test .go file under dir.
func walkGoFiles(t *testing.T, dir string, visit func(file string, imports []string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		imports := make([]string, 0, len(f.Imports))
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imports = append(imports, p)
		}
		visit(path, imports)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
