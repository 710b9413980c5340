package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var poolretainAnalyzer = &Analyzer{
	Name: "poolretain",
	Doc: "flag storing a pooled one-shot object (sim event and process " +
		"carrier, smp irqJob and Task, nic wireTx/rxJob, ether delivery, " +
		"pushpull txJob, recvOp and the sender, receiver and puller step " +
		"machines) into a struct field, slice, or " +
		"map after the call that returns it to its free list: the pool " +
		"will recycle the object and the stale reference aliases a " +
		"different logical event.",
	Run: runPoolretain,
}

// pooledTypeNames are the free-listed one-shot types. Matching is by
// type name so golden testdata can declare local stand-ins.
var pooledTypeNames = map[string]bool{
	"event":    true,
	"carrier":  true,
	"irqJob":   true,
	"wireTx":   true,
	"rxJob":    true,
	"delivery": true,
	"txJob":    true,
	"Task":     true,
	"recvOp":   true,
	"sender":   true,
	"receiver": true,
	"puller":   true,
}

// prKind distinguishes the per-function lifecycle events the analyzer
// replays in source order.
type prKind int

const (
	prRelease prKind = iota // object handed back to its pool
	prClear                 // variable rebound; prior release irrelevant
	prStore                 // object stored into field/slice/map
)

type prEvent struct {
	pos  token.Pos
	kind prKind
	obj  types.Object
	desc string
}

func runPoolretain(prog *Program) []Finding {
	var fs []Finding
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fs = append(fs, poolretainInFunc(prog, pkg, fd)...)
			}
		}
	}
	return fs
}

// pooledObj resolves e to the object of a pooled-type variable (through
// parens and address-of), or nil.
func pooledObj(info *types.Info, e ast.Expr) types.Object {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || !pooledTypeNames[namedTypeName(obj.Type())] {
		return nil
	}
	return obj
}

// poolNamed reports whether the expression names a free list (the
// conventional pool/free/idle slice the releasing append targets).
func poolNamed(e ast.Expr) bool {
	s := strings.ToLower(exprString(e))
	return strings.Contains(s, "pool") || strings.Contains(s, "free") ||
		strings.Contains(s, "idle")
}

// releasingCallee reports whether a call's function name marks it as a
// pool-release entry point.
func releasingCallee(info *types.Info, call *ast.CallExpr) bool {
	var name string
	if fn := calleeFunc(info, call); fn != nil {
		name = fn.Name()
	} else if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
	}
	name = strings.ToLower(name)
	return strings.Contains(name, "release") || strings.Contains(name, "free") ||
		strings.Contains(name, "recycle")
}

func poolretainInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Finding {
	var events []prEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) >= 2 {
					toPool := poolNamed(n.Args[0])
					for _, arg := range n.Args[1:] {
						obj := pooledObj(pkg.Info, arg)
						if obj == nil {
							continue
						}
						if toPool {
							events = append(events, prEvent{pos: n.Pos(), kind: prRelease, obj: obj})
						} else {
							events = append(events, prEvent{pos: arg.Pos(), kind: prStore, obj: obj,
								desc: "appended to " + exprString(n.Args[0])})
						}
					}
					return true
				}
			}
			if releasingCallee(pkg.Info, n) {
				for _, arg := range n.Args {
					if obj := pooledObj(pkg.Info, arg); obj != nil {
						events = append(events, prEvent{pos: n.Pos(), kind: prRelease, obj: obj})
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				// Rebinding the variable itself starts a fresh lifetime.
				if obj := pooledObj(pkg.Info, lhs); obj != nil {
					events = append(events, prEvent{pos: n.Pos(), kind: prClear, obj: obj})
					continue
				}
				if rhs == nil {
					continue
				}
				obj := pooledObj(pkg.Info, rhs)
				if obj == nil {
					continue
				}
				switch unparen(lhs).(type) {
				case *ast.SelectorExpr:
					events = append(events, prEvent{pos: rhs.Pos(), kind: prStore, obj: obj,
						desc: "stored in field " + exprString(lhs)})
				case *ast.IndexExpr:
					events = append(events, prEvent{pos: rhs.Pos(), kind: prStore, obj: obj,
						desc: "stored in " + exprString(lhs)})
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj := pooledObj(pkg.Info, v); obj != nil {
					events = append(events, prEvent{pos: v.Pos(), kind: prStore, obj: obj,
						desc: "captured in composite literal"})
				}
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	released := make(map[types.Object]bool)
	var fs []Finding
	for _, ev := range events {
		switch ev.kind {
		case prRelease:
			released[ev.obj] = true
		case prClear:
			released[ev.obj] = false
		case prStore:
			if released[ev.obj] {
				fs = append(fs, prog.finding("poolretain", ev.pos,
					"pooled %s %q %s after it was released to its free list; the pool will recycle it out from under this reference",
					namedTypeName(ev.obj.Type()), ev.obj.Name(), ev.desc))
			}
		}
	}
	return fs
}
