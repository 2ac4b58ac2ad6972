package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"gicnet/internal/lint"
)

// wantRE extracts the quoted regexes from a "// want" comment: double-quoted
// or backtick-quoted, several per comment.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// loadWants scans every fixture file under dir (recursively, so
// cross-package fixtures with subdirectory packages work; want matching is
// by base name, so fixture file names must stay unique within a fixture)
// for // want expectations.
func loadWants(t *testing.T, dir string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, pat, err)
				}
				wants = append(wants, &want{file: e.Name(), line: line, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs the analyzers, and checks the
// diagnostics against the fixture's // want comments: every diagnostic must
// match a want on its line, every want must be hit exactly once.
func runFixture(t *testing.T, name string, analyzers []lint.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	prog, err := lint.LoadFixture(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	wants := loadWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", name)
	}
	for _, d := range lint.Run(prog, analyzers) {
		base := filepath.Base(d.File)
		hit := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determ", []lint.Analyzer{
		&lint.Determinism{Pkgs: []string{"fixture/determ"}},
	})
}

func TestHotpathFixture(t *testing.T) {
	runFixture(t, "hotpath", []lint.Analyzer{
		&lint.Hotpath{AllowCalls: []string{"math", "math/bits"}},
	})
}

func TestAsmLeafFixture(t *testing.T) {
	runFixture(t, "asmleaf", []lint.Analyzer{
		&lint.Hotpath{AllowCalls: []string{"math", "math/bits"}},
	})
}

func TestConcheckFixture(t *testing.T) {
	runFixture(t, "concheck", []lint.Analyzer{
		&lint.Concheck{Pairs: []lint.AcquirePair{
			{Acquire: "(*fixture/concheck.Arena).acquire", Release: "release"},
		}},
	})
}

func TestPurecheckFixture(t *testing.T) {
	runFixture(t, "purecheck", []lint.Analyzer{
		&lint.Purecheck{
			Roots: []string{"fixture/purecheck.mustAnnotate"},
		},
	})
}

func TestCrossdetFixture(t *testing.T) {
	runFixture(t, "crossdet", []lint.Analyzer{
		&lint.Crossdet{Pkgs: []string{"fixture/crossdet/det"}},
	})
}

func TestFloatCmpFixture(t *testing.T) {
	runFixture(t, "floatcmp", []lint.Analyzer{&lint.FloatCmp{}})
}

func TestErrCheckFixture(t *testing.T) {
	runFixture(t, "errcheck", []lint.Analyzer{
		&lint.ErrCheck{MustCheck: lint.DefaultConfig().MustCheck},
	})
}

// TestRepoClean proves the real repository satisfies every contract the
// analyzers enforce: the tree that ships is lint-clean, so any new finding
// is a regression introduced by the change under review.
func TestRepoClean(t *testing.T) {
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(prog, lint.Analyzers(lint.DefaultConfig()))
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestDeterministicPackagesLoaded guards the config against rot: every
// package the determinism contract names must actually exist in the module,
// so a rename cannot silently drop a package out of enforcement.
func TestDeterministicPackagesLoaded(t *testing.T) {
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		loaded[pkg.Path] = true
	}
	for _, want := range lint.DefaultConfig().DeterministicPkgs {
		if !loaded[want] {
			t.Errorf("deterministic package %s is configured but not present in the module", want)
		}
	}
}

// loadRepo loads and type-checks the whole module once per test binary;
// the load dominates this package's test time, and the tests that use it
// only read the program.
var loadRepo = sync.OnceValues(func() (*lint.Program, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	return lint.LoadModule(root)
})

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
