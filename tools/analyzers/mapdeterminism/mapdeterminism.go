// Package mapdeterminism is a repository-local vet pass flagging map
// iteration that feeds ordered output. Go randomizes map iteration order,
// so a `for k := range m` loop that appends to a slice, writes into a
// strings.Builder, concatenates strings, or prints, produces a different
// sequence on every run — the exact bug class PR 6 caught at runtime in
// the vectorizer, where splat instructions were inserted into the loop
// preheader in map order and recompiles emitted different programs. In a
// pipeline whose artifacts are content-addressed (profile codec,
// design-point store), any such loop is a determinism landmine, so the
// pass runs repo-wide in `make lint` and CI.
//
// The pass is intentionally syntactic (stdlib go/parser only, no type
// information), like faultwrap: a variable counts as a map when the
// function declares or assigns it a literal map type (`m := map[K]V{}`,
// `make(map[K]V)`, `var m map[K]V`, or a map-typed parameter). A loop is
// exempt when the slice it appends to is passed to a sort call anywhere in
// the same function — sorting re-establishes a deterministic order, and
// the collect-then-sort idiom is the standard fix.
//
// The pass runs under the tools/analyzers/cmd/vet multichecker:
//
//	go run ./tools/analyzers/cmd/vet ./...
package mapdeterminism

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Name is the analyzer's diagnostic prefix.
const Name = "mapdeterminism"

// Finding is one map-iteration-feeds-ordered-output diagnostic, positioned
// at the offending range statement.
type Finding struct {
	Pos token.Pos
	Msg string
}

// CheckFile reports every range-over-map loop in the file whose body feeds
// ordered output and whose collected result is never sorted.
func CheckFile(f *ast.File) []Finding {
	var findings []Finding
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		findings = append(findings, checkFunc(fd)...)
	}
	return findings
}

func checkFunc(fd *ast.FuncDecl) []Finding {
	maps := mapIdents(fd)
	if len(maps) == 0 {
		return nil
	}
	sorted := sortedIdents(fd.Body)
	var findings []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		id, ok := rng.X.(*ast.Ident)
		if !ok || !maps[id.Name] {
			return true
		}
		for _, sink := range orderedSinks(rng.Body) {
			if sink.target != "" && sorted[sink.target] {
				continue // collect-then-sort idiom: order is re-established
			}
			findings = append(findings, Finding{
				Pos: rng.For,
				Msg: fmt.Sprintf("iteration over map %q feeds ordered output (%s); map order is randomized — record keys in discovery order or sort before emitting",
					id.Name, sink.desc),
			})
			break // one finding per loop, not per sink
		}
		return true
	})
	return findings
}

// mapIdents collects names the function syntactically binds to a map:
// map-typed parameters, `var x map[K]V`, and assignments from a map
// composite literal or make(map[K]V).
func mapIdents(fd *ast.FuncDecl) map[string]bool {
	maps := map[string]bool{}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			if _, ok := p.Type.(*ast.MapType); ok {
				for _, name := range p.Names {
					maps[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if isMapExpr(rhs) {
					maps[id.Name] = true
				}
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
				_, typed := vs.Type.(*ast.MapType)
				for i, name := range vs.Names {
					if typed || (i < len(vs.Values) && isMapExpr(vs.Values[i])) {
						maps[name.Name] = true
					}
				}
			}
		}
		return true
	})
	return maps
}

// isMapExpr reports whether an expression syntactically produces a map: a
// map composite literal or a make(map[K]V) call.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) >= 1 {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// sortedIdents collects names passed to a sort-like call anywhere in the
// function body (sort.Slice(x, ...), sort.Strings(x), slices.Sort(x),
// slices.SortFunc(x, ...)). The scan is deliberately function-wide rather
// than statements-after-the-loop: once the collected slice is sorted
// anywhere, map order cannot leak through it.
func sortedIdents(body *ast.BlockStmt) map[string]bool {
	sorted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !strings.HasPrefix(name, "Sort") && !strings.HasPrefix(name, "Strings") &&
			!strings.HasPrefix(name, "Ints") && name != "Slice" && name != "SliceStable" {
			return true
		}
		for _, arg := range call.Args {
			if path := exprPath(arg); path != "" {
				sorted[path] = true
			}
		}
		return true
	})
	return sorted
}

// sink is one ordered-output operation inside a range body: desc names it
// for the diagnostic; target is the appended-to identifier when the sink
// is an append (the name the sorted-suppression keys on), "" otherwise.
type sink struct {
	desc   string
	target string
}

// orderedSinks scans a range body for operations whose result depends on
// iteration order: append to a slice, strings.Builder/io.Writer writes,
// string concatenation, and printing.
func orderedSinks(body *ast.BlockStmt) []sink {
	var sinks []sink
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Rhs) == 1 && isStringy(n.Rhs[0]) {
				sinks = append(sinks, sink{desc: "string += concatenation"})
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
					target := exprPath(call.Args[0])
					if target == "" && i < len(n.Lhs) {
						target = exprPath(n.Lhs[i])
					}
					sinks = append(sinks, sink{desc: fmt.Sprintf("append to %q", target), target: target})
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			switch {
			case name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune":
				if _, ok := n.Fun.(*ast.SelectorExpr); ok {
					sinks = append(sinks, sink{desc: name + " into a writer"})
				}
			case strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint"):
				sinks = append(sinks, sink{desc: name + " output"})
			}
		}
		return true
	})
	return sinks
}

// isStringy reports whether an expression plausibly produces a string: it
// contains a string literal or a Sprint-family call. Keeps `n += m[k]`
// accumulation (order-insensitive for commutative ops) out of the sink
// set without type information.
func isStringy(e ast.Expr) bool {
	stringy := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				stringy = true
			}
		case *ast.CallExpr:
			if strings.HasPrefix(calleeName(n), "Sprint") {
				stringy = true
			}
		}
		return !stringy
	})
	return stringy
}

// exprPath flattens an identifier or selector chain to a dotted path
// ("preheader.Instrs"); "" for any other expression shape.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// calleeName returns the terminal name of a call's function expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
