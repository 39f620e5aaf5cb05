package analysis

import (
	"go/ast"
	"go/types"
)

// DeprCheck returns the analyzer replacing the old `make
// deprecation-gate` grep: no identifier whose declaration carries the
// conventional "Deprecated:" doc marker may be used outside its
// defining package.
//
// A Deprecated name is a compatibility shim: an old spelling a package
// keeps so existing callers still build while it normalizes the name
// away at its boundary. Any *other* package reaching for it is new code
// written against the dead API. The tree has no such shims today; the
// check keeps a future one from growing new callers. Matching by
// object, not by identifier text, lets a deprecated field coexist with
// a current like-named field in another type — the false positive the
// old grep could only avoid by under-gating.
//
// The defining package itself is exempt — it must keep reading the
// fields to normalize them — and so are uses inside the declaration
// being marked (a deprecated function's own body).
func DeprCheck() *Analyzer {
	a := &Analyzer{
		Name: "deprcheck",
		Doc:  "flags uses of Deprecated-marked declarations outside their defining package",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
					return true
				}
				note, ok := pass.Prog.Deprecated(obj)
				if !ok {
					return true
				}
				pass.Reportf(id.Pos(), "use of deprecated %s %s (Deprecated: %s)",
					objKind(obj), objName(obj), note)
				return true
			})
		}
		return nil
	}
	return a
}

// objKind names the declaration class for the diagnostic.
func objKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "function"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "constant"
	case *types.Var:
		if o.IsField() {
			return "field"
		}
		return "variable"
	}
	return "identifier"
}

// objName qualifies the object with its package name; alongside the
// diagnostic position that is unambiguous without reconstructing the
// owning struct or receiver.
func objName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
