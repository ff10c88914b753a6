// Package ctxflow enforces context propagation through the RPC layers.
//
// Since PR 5, cancellation flows end to end: rpcnet.CallContext merges the
// caller's deadline with the per-call timeout, and every proto.Cluster
// RPC path threads a context.Context down to the socket. Three mistakes
// silently sever that chain:
//
//  1. A function that receives a ctx parameter but calls
//     context.Background() or context.TODO() drops its caller's deadline
//     and cancellation on the floor — the RPC below it becomes
//     uncancellable.
//  2. An exported proto.Cluster method that issues RPCs (calls c.call or
//     a CallContext) without accepting a context.Context widens the API
//     with an uncancellable entry point.
//  3. A context.WithCancel/WithTimeout/WithDeadline whose cancel function
//     is discarded (assigned to _) or never used leaks the context's
//     resources and, on the scatter-gather fan-outs, keeps losing probes
//     running after a decisive answer.
//
// The analyzer fires only in the below-the-boundary packages (proto,
// rpcnet). Compatibility wrappers without a ctx parameter (MuxClient.Call
// delegating to CallContext) are deliberate API boundary adapters and are
// not flagged by rule 1 — they have no caller context to drop.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"ghba/internal/vet/vetutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "ctxflow",
	Doc:      "RPC call paths must accept and forward context.Context; no dropped cancellation below the API boundary",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// rpcPackages are the layers below the public API boundary, where every
// context must originate from a caller.
var rpcPackages = map[string]bool{
	"proto":  true,
	"rpcnet": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !rpcPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	rep := vetutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		hasCtx := hasContextParam(pass.TypesInfo, fd)

		// Rule 1: ctx in hand, Background/TODO in body.
		if hasCtx {
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				if _, isLit := m.(*ast.FuncLit); isLit {
					return true // closures share the finding; keep walking
				}
				call, isCall := m.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if name, fromCtxPkg := contextPkgFunc(pass.TypesInfo, call); fromCtxPkg && (name == "Background" || name == "TODO") {
					rep.Reportf(call.Pos(), "%s has a context parameter but calls context.%s, dropping the caller's deadline and cancellation", fd.Name.Name, name)
				}
				return true
			})
		}

		// Rule 2: exported RPC-issuing methods must take a context. Scoped
		// to proto: rpcnet's ctx-less Call wrappers are the documented
		// compatibility adapters at the transport boundary.
		if !hasCtx && pass.Pkg.Name() == "proto" && fd.Recv != nil && ast.IsExported(fd.Name.Name) &&
			!vetutil.IsTestFile(pass.Fset, fd.Pos()) && issuesRPCs(fd.Body) {
			rep.Reportf(fd.Pos(), "exported method %s issues RPCs but has no context.Context parameter; callers cannot cancel it", fd.Name.Name)
		}

		// Rule 3: discarded or unused cancel functions.
		checkCancel(pass, rep, fd)
	})
	return nil, nil
}

// hasContextParam reports whether any parameter is a context.Context.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// contextPkgFunc resolves a call to a package-level function of package
// context, returning its name.
func contextPkgFunc(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	return fn.Name(), true
}

// issuesRPCs reports whether the body directly calls the coordinator's RPC
// plumbing: a method named call, Call, or CallContext. These are the only
// ways bytes leave proto/rpcnet.
func issuesRPCs(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			switch sel.Sel.Name {
			case "call", "Call", "CallContext":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkCancel flags context.WithCancel/WithTimeout/WithDeadline whose
// cancel func is blanked or never referenced again.
func checkCancel(pass *analysis.Pass, rep *vetutil.Reporter, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(assign.Lhs) != 2 || len(assign.Rhs) != 1 {
			return true
		}
		call, isCall := assign.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return true
		}
		name, fromCtxPkg := contextPkgFunc(pass.TypesInfo, call)
		if !fromCtxPkg || !strings.HasPrefix(name, "With") || name == "WithValue" {
			return true
		}
		cancelIdent, isIdent := assign.Lhs[1].(*ast.Ident)
		if !isIdent {
			return true
		}
		// A named cancel that goes unused fails to compile, so the one
		// pattern that ships is the explicit blank: ctx, _ := WithCancel.
		if cancelIdent.Name == "_" {
			rep.Reportf(assign.Pos(), "cancel from context.%s discarded; the fan-out keeps running after its answer — defer it or call it on every exit", name)
		}
		return true
	})
}
