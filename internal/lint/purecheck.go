package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PureMarker annotates a function as side-effect-free: everything on a
// replay-fingerprint path must be, or a cache hit could return different
// bytes than the computation it stands in for. The comment form, placed in
// the function's doc comment, is
//
//	//gicnet:pure [allow=write:<name>[,write:<name>...]]
//
// Annotated functions may not write package-level state, may not write
// through pointer/slice/map-typed parameters or receivers (their caller's
// state), may not perform channel operations, launch goroutines, or
// iterate maps (iteration order is nondeterministic), and are closed under
// calls: every static callee must itself be //gicnet:pure, an
// assembly-backed leaf, or allowlisted (math, hash/fnv, ... by default).
// allow=write:<name> grants writes through the named parameter or receiver
// — the scratch-buffer idiom, where the "write" is reuse of caller-owned
// scratch space that never outlives the call's result. A caller passing
// its own parameter into such a slot must carry the matching grant, so
// write permissions stay visible along the whole call chain.
const PureMarker = "//gicnet:pure"

// Purecheck enforces the //gicnet:pure contract, plus presence: every
// function named in Roots (the fingerprint-path entry points) must carry
// the annotation.
type Purecheck struct {
	// AllowCalls are callees pure functions may call without the
	// annotation: whole packages by import path or single functions by
	// types.FullName.
	AllowCalls []string
	// Roots are types.FullNames that must be annotated //gicnet:pure.
	Roots []string
}

func (*Purecheck) Name() string { return "purecheck" }

// pureFunc is one annotated function: declaration plus write grants.
type pureFunc struct {
	decl     *ast.FuncDecl
	pkg      *Package
	writable map[string]bool         // parameter/receiver names writes may go through
	params   map[types.Object]string // parameter/receiver objects → name
}

// parsePureComment matches a doc-comment line against PureMarker and
// returns the allow= grants ("write:name" kinds). ok is false when the
// line is not a pure annotation.
func parsePureComment(text string) (allow map[string]bool, ok bool) {
	rest, found := strings.CutPrefix(text, PureMarker)
	if !found {
		return nil, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // //gicnet:purexyz is not an annotation
	}
	allow = map[string]bool{}
	for _, field := range strings.Fields(rest) {
		if kinds, isAllow := strings.CutPrefix(field, "allow="); isAllow {
			for _, k := range strings.Split(kinds, ",") {
				allow[k] = true
			}
		}
	}
	return allow, true
}

func (a *Purecheck) Run(prog *Program) []Diagnostic {
	// Pass 1: collect every annotated function and every assembly leaf, so
	// the call rule can vet cross-package callees.
	pure := map[*types.Func]*pureFunc{}
	asmLeaf := map[*types.Func]bool{}
	allFuncs := map[string]*types.Func{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				allFuncs[fullName(fn)] = fn
				if fd.Body == nil {
					asmLeaf[fn] = true
					continue
				}
				if fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if allow, ok := parsePureComment(c.Text); ok {
						pure[fn] = newPureFunc(fd, pkg, allow)
						break
					}
				}
			}
		}
	}

	// Pass 2: check every annotated body.
	var diags []Diagnostic
	for _, pf := range pure {
		diags = append(diags, a.checkBody(prog, pf, pure, asmLeaf)...)
	}

	// Pass 3: presence. Every configured root whose package is loaded must
	// exist and carry the annotation — the fingerprint contract cannot rot
	// off a renamed function silently.
	for _, root := range a.Roots {
		fn, ok := allFuncs[root]
		if !ok {
			if a.rootPkgLoaded(prog, root) {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name(),
					Pos:      prog.Fset.Position(prog.Pkgs[0].Files[0].Pos()),
					Message:  fmt.Sprintf("configured pure root %s does not exist in the module (stale PureRoots entry?)", root),
				})
			}
			continue
		}
		if _, annotated := pure[fn]; !annotated {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name(),
				Pos:      prog.Fset.Position(fn.Pos()),
				Message:  fmt.Sprintf("%s is on a fingerprint path and must be annotated %s", root, PureMarker),
			})
		}
	}
	return diags
}

// rootPkgLoaded reports whether the package a root's FullName refers to is
// part of this load. Test fixture loads hold only a few packages, so
// presence checks skip roots whose package is outside the load.
func (a *Purecheck) rootPkgLoaded(prog *Program, root string) bool {
	for _, pkg := range prog.Pkgs {
		if strings.Contains(root, pkg.Path+".") {
			return true
		}
	}
	return false
}

func newPureFunc(fd *ast.FuncDecl, pkg *Package, allow map[string]bool) *pureFunc {
	pf := &pureFunc{
		decl:     fd,
		pkg:      pkg,
		writable: map[string]bool{},
		params:   map[types.Object]string{},
	}
	for k := range allow {
		if name, ok := strings.CutPrefix(k, "write:"); ok {
			pf.writable[name] = true
		}
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if obj := pkg.Info.Defs[id]; obj != nil {
					pf.params[obj] = id.Name
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return pf
}

// pureAllowedBuiltins have no observable effect beyond their result (panic
// aborts — purity is moot on the failure path).
var pureAllowedBuiltins = map[string]bool{
	"len": true, "cap": true, "append": true, "make": true, "new": true,
	"panic": true, "recover": true, "min": true, "max": true,
	"real": true, "imag": true, "complex": true, "print": true, "println": true,
}

func (a *Purecheck) checkBody(prog *Program, pf *pureFunc, pure map[*types.Func]*pureFunc, asmLeaf map[*types.Func]bool) []Diagnostic {
	name := pf.decl.Name.Name
	info := pf.pkg.Info
	var diags []Diagnostic
	diag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: a.Name(),
			Pos:      prog.Fset.Position(pos),
			Message:  fmt.Sprintf("pure %s: %s", name, fmt.Sprintf(format, args...)),
		})
	}

	// Closures declared inside the annotated body count as part of it:
	// their captures are the function's own locals.
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if _, isNew := info.Defs[id]; isNew || id.Name == "_" {
							continue // fresh variable, not a write
						}
					}
				}
				a.checkWrite(prog, pf, lhs, "", &diags)
			}
		case *ast.IncDecStmt:
			a.checkWrite(prog, pf, n.X, "", &diags)
		case *ast.SendStmt:
			diag(n.Pos(), "channel send is a side effect")
		case *ast.GoStmt:
			diag(n.Pos(), "launches a goroutine")
		case *ast.SelectStmt:
			diag(n.Pos(), "select is a channel operation")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				diag(n.Pos(), "channel receive is a side effect")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					diag(n.Pos(), "iterates a map: iteration order is nondeterministic")
				}
			}
		case *ast.CallExpr:
			diags = append(diags, a.checkCall(prog, pf, pure, asmLeaf, n)...)
		}
		return true
	})
	return diags
}

// checkCall vets one call site inside a pure body.
func (a *Purecheck) checkCall(prog *Program, pf *pureFunc, pure map[*types.Func]*pureFunc, asmLeaf map[*types.Func]bool, call *ast.CallExpr) []Diagnostic {
	info := pf.pkg.Info
	name := pf.decl.Name.Name
	var diags []Diagnostic
	diag := func(format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: a.Name(),
			Pos:      prog.Fset.Position(call.Pos()),
			Message:  fmt.Sprintf("pure %s: %s", name, fmt.Sprintf(format, args...)),
		})
	}
	if isConversion(info, call) {
		return nil
	}
	obj, viaInterface := calleeOf(info, call)
	switch callee := obj.(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "copy", "delete", "clear":
			if len(call.Args) > 0 {
				a.checkWrite(prog, pf, call.Args[0], callee.Name(), &diags)
			}
		default:
			if !pureAllowedBuiltins[callee.Name()] {
				diag("builtin %s is not purity-vetted", callee.Name())
			}
		}
		return diags
	case *types.Func:
		if callePure, ok := pure[callee]; ok {
			// The callee is vetted, but its write grants become this call's
			// writes: each granted parameter position must satisfy the
			// caller's own write rule.
			diags = append(diags, a.checkGrantedWrites(prog, pf, callePure, call)...)
			return diags
		}
		if asmLeaf[callee] {
			return diags
		}
		if viaInterface {
			// A dynamic dispatch cannot be vetted in general, but a method
			// on a locally-constructed value (the fnv.New64a() hash) stays
			// inside this call's own state.
			if recv := callReceiver(call); recv != nil && a.rootIsLocal(pf, recv) {
				return diags
			}
			diag("call to %s through an interface on non-local state cannot be purity-vetted", callee.Name())
			return diags
		}
		if a.callAllowed(callee) {
			// Allowlisted writers (fmt.Fprintf, binary.PutUint64) write
			// their first argument; hold it to the write rule.
			if writesFirstArg(callee) && len(call.Args) > 0 {
				a.checkWrite(prog, pf, call.Args[0], fullName(callee), &diags)
			}
			return diags
		}
		diag("calls %s, which is neither %s nor allowlisted", fullName(callee), PureMarker)
		return diags
	default:
		// Dynamic call through a function value: fine when the value is a
		// local (a closure over this function's own locals), opaque
		// otherwise.
		if root := rootIdent(call.Fun); root != nil && a.rootIsLocal(pf, root) {
			return diags
		}
		diag("dynamic call through a non-local function value cannot be purity-vetted")
		return diags
	}
}

// checkGrantedWrites applies the caller's write rule to every argument the
// pure callee is allowed to write through.
func (a *Purecheck) checkGrantedWrites(prog *Program, pf *pureFunc, callee *pureFunc, call *ast.CallExpr) []Diagnostic {
	if len(callee.writable) == 0 {
		return nil
	}
	var diags []Diagnostic
	// Receiver grant: the method expression's base object.
	if callee.decl.Recv != nil && len(callee.decl.Recv.List) > 0 && len(callee.decl.Recv.List[0].Names) > 0 {
		recvName := callee.decl.Recv.List[0].Names[0].Name
		if callee.writable[recvName] {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				a.checkWrite(prog, pf, sel.X, callee.decl.Name.Name, &diags)
			}
		}
	}
	// Parameter grants, positionally.
	idx := 0
	if callee.decl.Type.Params != nil {
		for _, f := range callee.decl.Type.Params.List {
			for _, id := range f.Names {
				if callee.writable[id.Name] && idx < len(call.Args) {
					a.checkWrite(prog, pf, call.Args[idx], callee.decl.Name.Name, &diags)
				}
				idx++
			}
		}
	}
	return diags
}

// checkWrite enforces the write rule on one lvalue (or write-reaching
// argument): writes must land in this function's own locals — not in
// package-level state, and not through a parameter or receiver unless an
// allow=write:<name> grant covers it. via names the callee responsible
// when the write happens inside a granted call.
func (a *Purecheck) checkWrite(prog *Program, pf *pureFunc, lhs ast.Expr, via string, diags *[]Diagnostic) {
	info := pf.pkg.Info
	name := pf.decl.Name.Name
	flag := func(format string, args ...any) {
		*diags = append(*diags, Diagnostic{
			Analyzer: a.Name(),
			Pos:      prog.Fset.Position(lhs.Pos()),
			Message:  fmt.Sprintf("pure %s: %s", name, fmt.Sprintf(format, args...)),
		})
	}
	root, indirect := writeRoot(info, lhs)
	if root == nil {
		flag("write through an unanalyzable expression")
		return
	}
	if root.Name == "_" {
		return
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return
	}
	suffix := ""
	if via != "" {
		suffix = fmt.Sprintf(" (via %s)", via)
	}
	if pname, isParam := pf.params[obj]; isParam {
		if pf.writable[pname] {
			return
		}
		if !indirect && via == "" {
			return // rebinding the parameter's local copy
		}
		flag("writes through parameter %s%s: annotate allow=write:%s if this is caller-owned scratch", pname, suffix, pname)
		return
	}
	if isPackageLevel(obj) {
		flag("writes package-level state %s%s", root.Name, suffix)
		return
	}
	// Local to the annotated function (closure locals included).
	if obj.Pos() >= pf.decl.Pos() && obj.Pos() < pf.decl.End() {
		return
	}
	flag("writes %s, which is declared outside this function%s", root.Name, suffix)
}

// writeRoot peels an lvalue to its root identifier, reporting whether the
// path crosses an indirection (pointer deref, slice/map index, selector
// through a pointer) — a write past an indirection mutates shared state,
// a write to the plain variable only mutates the local copy.
func writeRoot(info *types.Info, lhs ast.Expr) (root *ast.Ident, indirect bool) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			return e, indirect
		case *ast.StarExpr:
			indirect = true
			lhs = e.X
		case *ast.IndexExpr:
			if t := info.TypeOf(e.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					indirect = true
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			if t := info.TypeOf(e.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					indirect = true
				}
			}
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		default:
			return nil, indirect
		}
	}
}

func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Pkg() != nil &&
		obj.Parent() == obj.Pkg().Scope()
}

// rootIsLocal reports whether an expression's root identifier resolves to
// something declared inside the annotated function.
func (a *Purecheck) rootIsLocal(pf *pureFunc, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := pf.pkg.Info.Uses[root]
	if obj == nil {
		obj = pf.pkg.Info.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= pf.decl.Pos() && obj.Pos() < pf.decl.End()
}

// callReceiver returns the receiver expression of a method call, nil for
// plain calls.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// writesFirstArg recognises allowlisted callees whose contract is writing
// into their first argument (stream printers, fixed-width encoders).
func writesFirstArg(fn *types.Func) bool {
	n := fn.Name()
	return strings.HasPrefix(n, "Fprint") || strings.HasPrefix(n, "Put") ||
		n == "Write" || strings.HasPrefix(n, "Append")
}

func (a *Purecheck) callAllowed(fn *types.Func) bool {
	full := fullName(fn)
	for _, pat := range a.AllowCalls {
		if pat == full {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == pat {
			return true
		}
	}
	return false
}
