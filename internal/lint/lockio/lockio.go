// Package lockio implements the riotvet analyzer that keeps blocking
// I/O out of mutex critical sections.
//
// # Invariant
//
// No storage block I/O (ReadBlock/WriteBlock anywhere, Create/Drop on
// a storage-package type), net.Conn read/write, or os.File write may
// execute on a path where a sync.Mutex or sync.RWMutex is held. Locks
// in this repository guard in-memory maps and counters; holding one
// across device or network latency serializes every other query on the
// lock for the duration of the slowest I/O.
//
// The check is flow-insensitive within one function: lock and unlock
// calls and I/O calls are ordered by source position, a deferred
// unlock keeps the lock held to the end of the function, and functions
// documented as running under a caller's lock (name ending in "Locked"
// or a //riotvet:locked doc annotation) are treated as holding a lock
// from their first statement. Calls inside `go` statements and nested
// function literals run on their own timelines and are checked
// separately.
//
// # Annotating exceptions
//
// Some mutexes exist precisely to serialize an I/O stream — the remote
// client's write-half mutex, say. Declare that role on the mutex field
// with a `//riotvet:iolock <reason>` comment and the analyzer ignores
// sections under it. A single call that is safe for reasons the
// analyzer cannot see carries `//riotvet:allow lockio — <reason>`.
//
// # History
//
// The streaming ReleaseBlock stall: the buffer pool wrote a retired
// dirty block back to the store while still holding the pool mutex,
// stalling every concurrent acquire behind one device write. The fix
// moved the write-back outside the critical section; this analyzer
// makes the fix a build invariant. Capacity eviction kept its
// write-back under the lock as an annotated exception until it too
// moved out, since on a replicated remote store every victim held the
// pool mutex across two network writes. Eviction now takes the mutex
// itself and releases it around each victim's write, the shape the
// fixture's evictToCap records; the same loop in a *Locked function
// stays flagged.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"riotshare/internal/lint/analysis"
	"riotshare/internal/lint/lintutil"
)

// Analyzer flags blocking storage, network, and file I/O performed
// while holding a mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "no blocking storage/network/file I/O while holding a mutex",
	Run:  run,
}

// run applies the analyzer to one package.
func run(pass *analysis.Pass) (any, error) {
	iolocks := collectIOLocks(pass)
	for _, file := range pass.Files {
		var walk func(fn ast.Node, markedLocked bool)
		walk = func(fn ast.Node, markedLocked bool) {
			checkFunc(pass, fn, markedLocked, iolocks)
			body := lintutil.FuncBody(fn)
			if body == nil {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					// A literal inherits no held locks: it runs on its
					// own activation's timeline (deferred, spawned, or
					// stored), so it is checked independently.
					walk(lit, false)
					return false
				}
				return true
			})
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walk(fd, lintutil.FuncMarkedLocked(fd))
			}
		}
	}
	return nil, nil
}

// collectIOLocks gathers the mutex objects annotated //riotvet:iolock:
// struct fields and package-level vars whose declarations carry the
// marker. Locks on these mutexes are exempt by design.
func collectIOLocks(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(names []*ast.Ident, comment string) {
		if !strings.Contains(comment, "riotvet:iolock") {
			return
		}
		for _, id := range names {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					record(f.Names, lintutil.FieldComment(f))
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					var parts []string
					for _, cg := range []*ast.CommentGroup{n.Doc, vs.Doc, vs.Comment} {
						if cg != nil {
							parts = append(parts, cg.Text())
						}
					}
					record(vs.Names, strings.Join(parts, " "))
				}
			}
			return true
		})
	}
	return out
}

// event is one point on a function's linearized timeline.
type event struct {
	pos  token.Pos
	kind int    // 0 acquire, 1 release, 2 io
	key  string // mutex key for acquire/release
	desc string // call description for io
}

// checkFunc linearizes one function body and reports I/O performed
// while the held-lock set is non-empty.
func checkFunc(pass *analysis.Pass, fn ast.Node, markedLocked bool, iolocks map[types.Object]bool) {
	body := lintutil.FuncBody(fn)
	if body == nil {
		return
	}
	deferred := make(map[*ast.CallExpr]bool)
	async := make(map[*ast.CallExpr]bool)
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own timeline
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			async[n.Call] = true
		case *ast.CallExpr:
			if async[n] {
				return true // runs on a new goroutine, not in this section
			}
			if lc, ok := lintutil.AsLockCall(pass.TypesInfo, n); ok {
				if isIOLock(pass, lc.Recv, iolocks) {
					return true
				}
				switch {
				case lc.Acquires():
					events = append(events, event{pos: n.Pos(), kind: 0, key: lc.Key})
				case lc.Releases() && !deferred[n]:
					// A deferred unlock holds the lock to function end,
					// so it contributes no release event.
					events = append(events, event{pos: n.Pos(), kind: 1, key: lc.Key})
				}
				return true
			}
			if desc, ok := ioCall(pass, n); ok {
				events = append(events, event{pos: n.Pos(), kind: 2, desc: desc})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := make(map[string]token.Pos)
	var order []string // acquisition order, for stable messages
	if markedLocked {
		held["the caller's lock"] = body.Pos()
		order = append(order, "the caller's lock")
	}
	for _, e := range events {
		switch e.kind {
		case 0:
			if _, ok := held[e.key]; !ok {
				order = append(order, e.key)
			}
			held[e.key] = e.pos
		case 1:
			delete(held, e.key)
			for i, k := range order {
				if k == e.key {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		case 2:
			if len(held) == 0 {
				continue
			}
			mu := order[len(order)-1]
			pass.Reportf(e.pos,
				"%s while %s is held (move the I/O outside the critical section, or annotate the mutex //riotvet:iolock if it exists to serialize this stream)",
				e.desc, mu)
		}
	}
}

// isIOLock reports whether the lock receiver resolves to a mutex
// declaration annotated //riotvet:iolock.
func isIOLock(pass *analysis.Pass, recv ast.Expr, iolocks map[types.Object]bool) bool {
	if len(iolocks) == 0 {
		return false
	}
	switch r := ast.Unparen(recv).(type) {
	case *ast.Ident:
		return iolocks[pass.TypesInfo.Uses[r]]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[r]; ok {
			return iolocks[sel.Obj()]
		}
		return iolocks[pass.TypesInfo.Uses[r.Sel]]
	}
	return false
}

// fileWrites is the os.File method set lockio treats as blocking
// writes.
var fileWrites = map[string]bool{
	"Write": true, "WriteAt": true, "WriteString": true,
	"Sync": true, "Truncate": true, "ReadFrom": true,
}

// ioCall classifies a call as blocking I/O, returning a description
// for the diagnostic.
func ioCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	name := fn.Name()
	switch {
	case name == "ReadBlock" || name == "WriteBlock":
		return "storage block I/O (" + name + ")", true
	case (name == "Create" || name == "Drop") && lintutil.PathIn(fn.Pkg().Path(), "storage"):
		return "storage " + name, true
	case fn.Pkg().Path() == "net" && (name == "Read" || name == "Write"):
		return "net.Conn " + name, true
	case fn.Pkg().Path() == "os" && fileWrites[name] && isOSFile(sig.Recv().Type()):
		return "os.File " + name, true
	}
	return "", false
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
