package lint

// modindex is the module machinery the interprocedural analyzers
// (taintflow, hotpath, lockguard) share (DESIGN.md §9): one index of every
// function body and named type of a pass, interface-method resolution over
// it, static callee resolution, and one deduplicating diagnostics sink.
// Each analyzer keeps only its own side tables, keyed by *types.Func.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// indexedFunc is one module function with a body.
type indexedFunc struct {
	obj    *types.Func
	decl   *ast.FuncDecl
	pkg    *Package
	params []*types.Var // receiver first, then declared parameters
}

// moduleIndex is the whole-module view of one pass.
type moduleIndex struct {
	pkgs  []*Package
	fset  *token.FileSet
	funcs map[*types.Func]*indexedFunc
	order []*indexedFunc // source order
	// named lists every module named type, for interface resolution.
	named []types.Type
	impls map[*types.Func][]*types.Func

	// pass receives the findings; nil drops them (LockOrderGraph).
	pass *ModulePass
	// quiet mutes the sink while an analyzer iterates to a fixpoint.
	quiet bool
	seen  map[diagKey]bool
}

// diagKey identifies a finding for deduplication: analyses that revisit
// every function until a fixpoint would otherwise repeat it.
type diagKey struct {
	file      string
	line, col int
	msg       string
}

// newModuleIndex indexes every function body and named type of pkgs.
// Findings go to pass; a nil pass drops them.
func newModuleIndex(pkgs []*Package, pass *ModulePass) *moduleIndex {
	x := &moduleIndex{
		pkgs:  pkgs,
		pass:  pass,
		funcs: make(map[*types.Func]*indexedFunc),
		impls: make(map[*types.Func][]*types.Func),
		seen:  make(map[diagKey]bool),
	}
	if len(pkgs) > 0 {
		x.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &indexedFunc{obj: obj, decl: fd, pkg: pkg}
				sig := obj.Type().(*types.Signature)
				if r := sig.Recv(); r != nil {
					fn.params = append(fn.params, r)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					fn.params = append(fn.params, sig.Params().At(i))
				}
				x.funcs[obj] = fn
				x.order = append(x.order, fn)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // already sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				x.named = append(x.named, tn.Type())
			}
		}
	}
	sort.Slice(x.order, func(i, j int) bool {
		return x.order[i].decl.Pos() < x.order[j].decl.Pos()
	})
	return x
}

// reportf hands a finding to the pass, once per (position, message).
func (x *moduleIndex) reportf(pos token.Pos, format string, args ...any) {
	if x.quiet || x.pass == nil {
		return
	}
	d := Diagnostic{
		Analyzer: x.pass.Analyzer.Name,
		Pos:      x.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	key := diagKey{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message}
	if x.seen[key] {
		return
	}
	x.seen[key] = true
	x.pass.report(d)
}

// implementations resolves an interface method to every concrete module
// method that can stand behind it: each non-interface named type T of the
// module whose T or *T method set satisfies the interface contributes the
// method of that name, when it has a body in the index.
func (x *moduleIndex) implementations(callee *types.Func) []*types.Func {
	if impls, ok := x.impls[callee]; ok {
		return impls
	}
	var out []*types.Func
	if isInterfaceMethod(callee) {
		iface := callee.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, t := range x.named {
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			pt := types.NewPointer(t)
			if !types.Implements(t, iface) && !types.Implements(pt, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(pt, true, callee.Pkg(), callee.Name())
			if m, ok := obj.(*types.Func); ok && x.funcs[m] != nil {
				out = append(out, m)
			}
		}
	}
	x.impls[callee] = out
	return out
}

// staticCallee resolves the called *types.Func, or nil for func values,
// conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// funcDisplay renders a callee for messages: Type.method or pkg.func.
func funcDisplay(fn *types.Func) string {
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
