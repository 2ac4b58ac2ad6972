package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Program is a fully type-checked view of a set of packages sharing one
// token.FileSet. It is what every Analyzer runs over.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("gicnet/internal/graph")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadOptions tunes what LoadModuleOpts loads.
type LoadOptions struct {
	// Tags are extra build tags considered true when selecting files, the
	// way `go build -tags` would (the host GOOS/GOARCH and gc are always
	// true). "purego" loads the pure-Go kernel variants instead of the
	// assembly dispatch files.
	Tags []string
}

// rawPkg is one parsed-but-not-yet-typechecked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports map[string]bool
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at root (the directory holding go.mod), using only the standard
// library: module-internal imports resolve against the packages being
// loaded, everything else falls back to the toolchain's source importer.
// Directories named testdata or vendor and hidden directories are skipped,
// as are _test.go files — the repo contracts the analyzers enforce bind
// shipped code, not tests.
func LoadModule(root string) (*Program, error) {
	return LoadModuleOpts(root, LoadOptions{})
}

// LoadModuleOpts is LoadModule with explicit build tags.
func LoadModuleOpts(root string, opts LoadOptions) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	tags := map[string]bool{}
	for _, t := range opts.Tags {
		if t != "" {
			tags[t] = true
		}
	}

	var raws []*rawPkg
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, path, tags)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		raws = append(raws, newRawPkg(importPath, path, files))
		return nil
	})
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(raws)
	if err != nil {
		return nil, err
	}
	return checkAll(fset, order)
}

// newRawPkg records one parsed package and its import set.
func newRawPkg(importPath, dir string, files []*ast.File) *rawPkg {
	rp := &rawPkg{path: importPath, dir: dir, files: files, imports: map[string]bool{}}
	for _, f := range files {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rp.imports[p] = true
		}
	}
	return rp
}

// topoOrder sorts packages so each package's module-internal dependencies
// precede it (the order typechecking requires).
func topoOrder(raws []*rawPkg) ([]*rawPkg, error) {
	sort.Slice(raws, func(i, j int) bool { return raws[i].path < raws[j].path })
	byPath := map[string]*rawPkg{}
	for _, rp := range raws {
		byPath[rp.path] = rp
	}
	var order []*rawPkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(rp *rawPkg) error
	visit = func(rp *rawPkg) error {
		switch state[rp.path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", rp.path)
		case 2:
			return nil
		}
		state[rp.path] = 1
		for _, dep := range sortedKeys(rp.imports) {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[rp.path] = 2
		order = append(order, rp)
		return nil
	}
	for _, rp := range raws {
		if err := visit(rp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checkAll typechecks the topo-ordered packages, registering each with the
// importer so later packages resolve against it.
func checkAll(fset *token.FileSet, order []*rawPkg) (*Program, error) {
	imp := &chainImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		mods: map[string]*types.Package{},
	}
	prog := &Program{Fset: fset}
	for _, rp := range order {
		pkg, err := check(fset, rp.path, rp.files, imp)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", rp.path, err)
		}
		imp.mods[rp.path] = pkg.Types
		pkg.Dir = rp.dir
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// LoadFixture parses and type-checks the package tree rooted at dir under
// the given synthetic import path: dir itself plus any nested directories
// holding Go files, so fixtures can exercise cross-package analyzers
// (subdirectory a/b loads as importPath/a/b). Fixture packages may import
// the standard library and each other; the lint test suite uses this to
// run analyzers over testdata packages that deliberately violate the
// contracts.
func LoadFixture(dir, importPath string) (*Program, error) {
	fset := token.NewFileSet()
	var raws []*rawPkg
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		files, perr := parseDir(fset, path, nil)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		pkgPath := importPath
		if rel != "." {
			pkgPath = importPath + "/" + filepath.ToSlash(rel)
		}
		raws = append(raws, newRawPkg(pkgPath, path, files))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	order, err := topoOrder(raws)
	if err != nil {
		return nil, err
	}
	return checkAll(fset, order)
}

// parseDir parses every non-test .go file directly in dir that the build
// configuration (host GOOS/GOARCH plus tags) selects, with comments.
// Build-constraint filtering matters because packages with GOARCH-tagged
// variants (the bitset kernels) declare the same functions in mutually
// exclusive files — loading them all would be a redeclaration error the
// real build never sees.
func parseDir(fset *token.FileSet, dir string, tags map[string]bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !suffixSelected(name) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !constraintSelected(f, tags) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// knownGOOS/knownGOARCH are the port names the filename-suffix rule
// recognises; a suffix outside these lists is just part of the name.
var knownGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownGOARCH = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// suffixSelected applies the go/build filename rule: a trailing _GOARCH,
// _GOOS, or _GOOS_GOARCH component restricts the file to that port. The
// lint loader builds for the host configuration, like `go build` would.
func suffixSelected(name string) bool {
	parts := strings.Split(strings.TrimSuffix(name, ".go"), "_")
	if n := len(parts); n >= 2 && knownGOARCH[parts[n-1]] {
		if parts[n-1] != runtime.GOARCH {
			return false
		}
		parts = parts[:n-1]
	}
	if n := len(parts); n >= 2 && knownGOOS[parts[n-1]] {
		return parts[n-1] == runtime.GOOS
	}
	return true
}

// constraintSelected evaluates the file's //go:build (or legacy +build)
// line. Tags in play: GOOS, GOARCH, the gc toolchain, and whatever extra
// tags the caller passed (the purego lint sweep); anything else is false,
// exactly as in `go build [-tags ...]`.
func constraintSelected(f *ast.File, tags map[string]bool) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			ok := expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || tags[tag]
			})
			if !ok {
				return false
			}
		}
	}
	return true
}

// check type-checks one package's files.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// chainImporter resolves module-internal packages from the in-progress load
// and everything else (the standard library) through the source importer.
type chainImporter struct {
	std  types.Importer
	mods map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.mods[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
