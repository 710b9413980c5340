package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

var taskletblockAnalyzer = &Analyzer{
	Name: "taskletblock",
	Doc: "flag blocking process-tier primitives (Queue.Get/Put, " +
		"Resource.Acquire/Use, Cond.Wait, Process.Sleep, Thread.Exec) " +
		"in functions reachable from an Engine.NewTasklet step " +
		"registration or from a function taking an smp *Task (a " +
		"handler body on the tasklet tier): tasklet steps run inline in " +
		"engine context and must use the polling variants " +
		"(PollGet/PollPut/PollAcquire/Await/TransmitStep) or the Task's " +
		"parking operations.",
	Run: runTaskletblock,
}

// blockingMethods maps receiver type name to the methods that park the
// calling process. Matching is by name so golden testdata can model the
// engine API with local stand-ins.
var blockingMethods = map[string]map[string]bool{
	"Queue":    {"Get": true, "Put": true},
	"Resource": {"Acquire": true, "Use": true},
	"Cond":     {"Wait": true, "WaitFor": true},
	"Process":  {"Sleep": true},
	"Thread":   {"Exec": true, "Compute": true, "Copy": true, "PIO": true, "Syscall": true},
}

// benignCtxMethods are Process/Thread methods that only read identity or
// engine handles and are safe from any tier.
var benignCtxMethods = map[string]bool{
	"Name":   true,
	"Engine": true,
	"Now":    true,
	"Done":   true,
	"ID":     true,
	"Node":   true,
}

// taskletblockPass carries traversal state for one program.
type taskletblockPass struct {
	prog    *Program
	visited map[*types.Func]bool
	seen    map[string]bool // finding dedupe across seeds
	fs      []Finding
}

func runTaskletblock(prog *Program) []Finding {
	tb := &taskletblockPass{
		prog:    prog,
		visited: make(map[*types.Func]bool),
		seen:    make(map[string]bool),
	}
	// Seeds in deterministic order: packages sorted by path, files and
	// call sites in source order.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || fn.Name() != "NewTasklet" || recvTypeName(fn) != "Engine" {
					return true
				}
				if len(call.Args) < 2 {
					return true
				}
				tb.seedStep(pkg, call)
				return true
			})
		}
	}
	// A handler body reaches its Task through a func value or an
	// interface (RaiseTask, nic.RxHandler), which traversal cannot
	// follow; every function that takes a *Task runs on the tasklet tier
	// by construction, so each one is a seed of its own.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !takesTask(pkg.Info, fd) {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					tb.follow(fn, funcDisplayName(fn))
				}
			}
		}
	}
	return tb.fs
}

// takesTask reports whether fd has a parameter of type *Task.
func takesTask(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok {
			if _, ptr := tv.Type.(*types.Pointer); ptr && namedTypeName(tv.Type) == "Task" {
				return true
			}
		}
	}
	return false
}

// seedStep resolves the step argument of an Engine.NewTasklet call and
// starts traversal from it.
func (tb *taskletblockPass) seedStep(pkg *Package, call *ast.CallExpr) {
	label := "tasklet"
	if lit, ok := unparen(call.Args[0]).(*ast.BasicLit); ok {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			label = s
		}
	}
	step := unparen(call.Args[1])
	switch step := step.(type) {
	case *ast.FuncLit:
		tb.walkBody(pkg, step.Body, label)
	default:
		if fn := resolveFuncValue(pkg.Info, step); fn != nil {
			tb.follow(fn, label)
		}
	}
}

// resolveFuncValue resolves an expression used as a function value — a
// named function or a method value like np.step — to its object.
func resolveFuncValue(info *types.Info, e ast.Expr) *types.Func {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// follow enqueues fn's body for traversal if it is declared in the
// analyzed program and not yet visited.
func (tb *taskletblockPass) follow(fn *types.Func, label string) {
	if tb.visited[fn] {
		return
	}
	tb.visited[fn] = true
	decl, dpkg := tb.prog.DeclOf(fn)
	if decl == nil || decl.Body == nil {
		return
	}
	tb.walkBody(dpkg, decl.Body, label)
}

// walkBody scans one function body for violating calls, descending into
// statically-resolved callees. Function literals are skipped unless
// immediately invoked: a literal passed elsewhere (say, a process body
// handed to Spawn) runs in its own tier, not the tasklet's.
func (tb *taskletblockPass) walkBody(pkg *Package, body ast.Node, label string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := unparen(n.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
			}
			tb.checkCall(pkg, n, label)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkCall classifies one call made from tasklet-reachable code.
func (tb *taskletblockPass) checkCall(pkg *Package, call *ast.CallExpr, label string) {
	fn := calleeFunc(pkg.Info, call)
	// The engine package itself is the scheduler: its internals manage
	// process lifecycles inline by design, so the process-tier hand-off
	// rules do not apply there (the blocking set still does).
	inEngine := pkg.Path == "pushpull/internal/sim"
	if fn != nil {
		recv := recvTypeName(fn)
		if blockingMethods[recv][fn.Name()] {
			tb.report(call.Pos(),
				"blocking call %s reachable from tasklet %q; tasklet steps must use the polling tier (PollGet/PollPut/PollAcquire/Await/TransmitStep)",
				funcDisplayName(fn), label)
			return
		}
		if !inEngine && (recv == "Process" || recv == "Thread") && !benignCtxMethods[fn.Name()] {
			tb.report(call.Pos(),
				"call to process-tier method %s reachable from tasklet %q; tasklets must not drive process context",
				funcDisplayName(fn), label)
			return
		}
	}
	if !inEngine {
		for _, arg := range call.Args {
			tv, ok := pkg.Info.Types[arg]
			if !ok {
				continue
			}
			name := namedTypeName(tv.Type)
			if name == "Process" || name == "Thread" {
				callee := "a function"
				if fn != nil {
					callee = funcDisplayName(fn)
				}
				tb.report(call.Pos(),
					"passing *%s to %s from code reachable from tasklet %q hands process-tier context to an inline step",
					name, callee, label)
				return // the callee runs process-tier logic; do not descend
			}
		}
	}
	if fn != nil {
		tb.follow(fn, label)
	}
}

// report records a deduplicated finding: the same call site may be
// reachable from several tasklet registrations, and the first seed in
// deterministic order wins.
func (tb *taskletblockPass) report(pos token.Pos, format string, args ...any) {
	f := tb.prog.finding("taskletblock", pos, format, args...)
	key := f.File + ":" + strconv.Itoa(f.Line) + ":" + strconv.Itoa(f.Col)
	if tb.seen[key] {
		return
	}
	tb.seen[key] = true
	tb.fs = append(tb.fs, f)
}
