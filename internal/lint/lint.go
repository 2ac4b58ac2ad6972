// Package lint is gicnet's repo-native static-analysis pass. It loads every
// package in the module with nothing but the standard library (go/parser +
// go/types, no golang.org/x/tools) and enforces the invariants the engine's
// correctness story rests on but that only runtime checks guarded before:
//
//   - determinism: the simulation packages may not read wall-clock time, use
//     the global math/rand stream, or let map iteration order leak into
//     accumulators, slices, or return values (byte-identical replay across
//     worker counts is a verified contract, see internal/verify);
//   - hotpath: functions annotated //gicnet:hotpath (the Monte Carlo trial
//     kernel) may not allocate or call un-vetted functions (the 0 allocs/op
//     benchmark gate, made file-and-line precise);
//   - floatcmp: no ==/!= on floating-point operands outside _test.go files;
//   - errcheck: a configurable set of must-check functions whose error
//     results the stdlib vet lets silently drop.
//
// Violations that are individually provable as safe are suppressed in place
// with a "//gicnet:allow <analyzer> <reason>" comment on the same or the
// preceding line, so every exception is visible at the line that needs it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// An Analyzer checks one invariant over a whole loaded program. Analyzers
// see every package at once because some contracts cross package boundaries
// (a hotpath function may call a hotpath function from another package).
type Analyzer interface {
	Name() string
	Run(prog *Program) []Diagnostic
}

// Config selects what the analyzers enforce. The zero value checks nothing;
// use DefaultConfig for the repo's contract set.
type Config struct {
	// DeterministicPkgs are import-path prefixes of packages bound by the
	// deterministic-replay contract; the determinism analyzer only fires
	// inside them.
	DeterministicPkgs []string

	// HotpathAllowCalls are callees a //gicnet:hotpath function may call
	// without carrying the annotation itself: either a whole package by
	// import path ("math/bits") or a single function by its types.FullName
	// ("math.Log1p", "(*bufio.Writer).Available").
	HotpathAllowCalls []string

	// MustCheck are functions (by types.FullName) whose error result must
	// not be discarded, for the errcheck analyzer.
	MustCheck []string

	// PureAllowCalls are callees a //gicnet:pure function may call without
	// carrying the annotation itself: whole packages by import path
	// ("hash/fnv") or single functions by types.FullName ("fmt.Fprintf").
	PureAllowCalls []string

	// PureRoots are functions (by types.FullName) that MUST carry the
	// //gicnet:pure annotation: the fingerprint-path entry points. The
	// purecheck analyzer reports any root that is loaded but unannotated,
	// so the contract cannot silently rot off a renamed function.
	PureRoots []string

	// AcquirePairs are resource acquire/release method pairs the concheck
	// analyzer enforces: every acquire call must be followed immediately
	// by a deferred release on the same receiver.
	AcquirePairs []AcquirePair
}

// AcquirePair names one acquire/release discipline: Acquire is the full
// types.FullName of the acquiring method, Release the bare method name
// that must be deferred on the same receiver in the next statement.
type AcquirePair struct {
	Acquire string
	Release string
}

// DefaultConfig returns the contract set enforced on this repository.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"gicnet/internal/sim",
			"gicnet/internal/failure",
			"gicnet/internal/graph",
			"gicnet/internal/partition",
			"gicnet/internal/rare",
			"gicnet/internal/serve",
			"gicnet/internal/experiments",
			"gicnet/internal/verify",
			"gicnet/internal/topology",
			"gicnet/internal/dataset",
			"gicnet/internal/xrand",
			"gicnet/internal/crosslayer",
			"gicnet/internal/recovery",
			"gicnet/internal/scenario",
		},
		HotpathAllowCalls: []string{
			"math",      // pure float kernels: Log, Log1p, Ldexp, ...
			"math/bits", // popcount / trailing-zeros word scans
		},
		MustCheck: []string{
			"(*bufio.Writer).Flush",
			"(*os.File).Close",
			"(*os.File).Sync",
			"(*encoding/json.Encoder).Encode",
			"(*text/tabwriter.Writer).Flush",
			"io.WriteString",
			"os.WriteFile",
			"os.MkdirAll",
		},
		PureAllowCalls: []string{
			"math",            // pure float kernels
			"math/bits",       // word scans
			"hash/fnv",        // fingerprint hash construction
			"encoding/binary", // fixed-width encoding into local buffers
			"fmt.Fprintf",     // identity headers written into a local hash
		},
		PureRoots: []string{
			"(*gicnet/internal/sim.Result).Fingerprint",
			"(*gicnet/internal/topology.Network).Fingerprint",
			"(gicnet/internal/serve.resultKey).batchKey",
			"(gicnet/internal/serve.resultKey).planKey",
			"gicnet/internal/serve.shardIndex",
			"(*gicnet/internal/crosslayer.Index).ScoreDead",
			"(*gicnet/internal/crosslayer.Index).scoreFromRoots",
		},
		AcquirePairs: []AcquirePair{
			{Acquire: "(*gicnet/internal/sim.Arena).acquire", Release: "release"},
		},
	}
}

// Analyzers returns the full analyzer set under cfg, in reporting order.
func Analyzers(cfg Config) []Analyzer {
	return []Analyzer{
		&Determinism{Pkgs: cfg.DeterministicPkgs},
		&Crossdet{Pkgs: cfg.DeterministicPkgs},
		&Concheck{Pairs: cfg.AcquirePairs},
		&Purecheck{AllowCalls: cfg.PureAllowCalls, Roots: cfg.PureRoots},
		&Hotpath{AllowCalls: cfg.HotpathAllowCalls},
		&FloatCmp{},
		&ErrCheck{MustCheck: cfg.MustCheck},
	}
}

// Run executes every analyzer over prog, drops findings suppressed by
// //gicnet:allow comments, and returns the rest sorted by position.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	allow := collectAllows(prog)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			d.File = d.Pos.Filename
			d.Line = d.Pos.Line
			d.Col = d.Pos.Column
			if allow.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// allowKey identifies one (file, line, analyzer) suppression grant.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet map[allowKey]bool

// AllowPrefix is the in-source suppression marker. The comment form is
//
//	//gicnet:allow <analyzer>[,<analyzer>...] <reason>
//
// placed on the violating line or the line directly above it. The reason is
// free text but required by convention: a suppression must say why the
// flagged construct is safe.
const AllowPrefix = "//gicnet:allow"

// parseAllowComment matches one comment line against AllowPrefix and
// returns the analyzer names it suppresses. ok is false when the line is
// not an allow comment (or has no analyzer list).
func parseAllowComment(text string) (analyzers []string, ok bool) {
	rest, found := strings.CutPrefix(text, AllowPrefix)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

func collectAllows(prog *Program) allowSet {
	set := allowSet{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := parseAllowComment(c.Text)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, name := range names {
						set[allowKey{pos.Filename, pos.Line, name}] = true
					}
				}
			}
		}
	}
	return set
}

// suppressed reports whether d is covered by an allow comment on its own
// line or the line directly above.
func (s allowSet) suppressed(d Diagnostic) bool {
	return s[allowKey{d.File, d.Line, d.Analyzer}] ||
		s[allowKey{d.File, d.Line - 1, d.Analyzer}]
}

// calleeOf resolves the called object of a call expression: a *types.Func
// for static calls and method calls, a *types.Builtin for builtins, nil for
// type conversions and dynamic calls through function values or interface
// method sets (for those, iface reports whether it is an interface-method
// call).
func calleeOf(info *types.Info, call *ast.CallExpr) (obj types.Object, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun], false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				recv := sel.Recv()
				if types.IsInterface(recv) {
					return f, true
				}
				return f, false
			}
			return nil, false // field of function type: dynamic call
		}
		return info.Uses[fun.Sel], false // qualified identifier pkg.F
	}
	return nil, false
}

// isConversion reports whether call is a type conversion rather than a call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}
