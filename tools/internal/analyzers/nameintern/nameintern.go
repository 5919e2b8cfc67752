// Package nameintern flags ad-hoc minting of variable-name-shaped
// strings in internal/absint and internal/solver.
//
// Every variable name the engine mints must go through
// intern.NameBuilder (PR 3's invariant). The name grammar opens every
// minted variable with a scope — `;`, the procedure's slot in the SCC
// being solved (or, outside the solver, its name), `;` — followed by a
// local part: `;1;eax@3` for a definition site, `;1;frm!stack0` for a
// formal, `;1;@5` for the callee instantiated at instruction 5 and
// `;1;@5!τ1` for that callee's existential τ1. No parsed procedure name
// can hold `;` (asm.Parse cuts comments there), so a minted variable
// never equals a procedure's name, and the scope names no procedure, so
// the vocabulary recurs across programs instead of growing the intern
// table with each one. NameBuilder is what keeps warm-path minting
// allocation-free. A fmt.Sprintf or string concatenation that embeds
// `;`, `!` or `@` in those packages is almost certainly minting a name
// outside the builder, so the analyzer flags:
//
//   - fmt.Sprintf / fmt.Appendf calls whose format literal contains
//     `;`, `!` or `@`;
//   - string concatenation (`+`, `+=`) with a literal operand
//     containing `;`, `!` or `@`.
//
// Strings that merely look name-shaped (error text, log messages)
// carry a //retypd:name-ok <justification> comment. Test files are
// exempt — tests spell out expected names literally.
package nameintern

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"retypd/tools/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "nameintern",
	Doc: "flags fmt.Sprintf/concat minting of variable-name-shaped strings (';'/'!'/'@') " +
		"in internal/absint and internal/solver; names must come from intern.NameBuilder; " +
		"suppress with //retypd:name-ok <justification>",
	Run: run,
}

// targeted reports whether the package is under the name-minting
// invariant.
func targeted(path string) bool {
	return strings.HasSuffix(path, "internal/absint") ||
		strings.HasSuffix(path, "internal/solver")
}

func run(pass *analysis.Pass) (any, error) {
	if !targeted(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkSprintf(pass, v)
			case *ast.BinaryExpr:
				if v.Op == token.ADD {
					checkConcat(pass, v, v.X, v.Y)
				}
			case *ast.AssignStmt:
				if v.Tok == token.ADD_ASSIGN && len(v.Rhs) == 1 {
					checkConcat(pass, v, v.Lhs[0], v.Rhs[0])
				}
			}
			return true
		})
	}
	return nil, nil
}

// nameShaped reports whether a string literal value carries the name
// grammar's separator characters.
func nameShaped(lit *ast.BasicLit) bool {
	if lit == nil || lit.Kind != token.STRING {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return false
	}
	return strings.ContainsAny(s, ";!@")
}

func checkSprintf(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.ObjectOf(pkgID).(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return
	}
	var format ast.Expr
	switch sel.Sel.Name {
	case "Sprintf", "Sprint":
		if len(call.Args) > 0 {
			format = call.Args[0]
		}
	case "Appendf":
		if len(call.Args) > 1 {
			format = call.Args[1]
		}
	default:
		return
	}
	lit, _ := ast.Unparen(format).(*ast.BasicLit)
	if !nameShaped(lit) {
		return
	}
	if pass.HasDirective(call.Pos(), "name-ok") {
		return
	}
	pass.Reportf(call.Pos(), "variable-name-shaped string minted with fmt.%s (format %s); "+
		"use intern.NameBuilder, or justify with //retypd:name-ok", sel.Sel.Name, lit.Value)
}

func checkConcat(pass *analysis.Pass, at ast.Node, x, y ast.Expr) {
	if t := pass.TypesInfo.TypeOf(y); t == nil || !isString(t) {
		return
	}
	var lit *ast.BasicLit
	if l, ok := ast.Unparen(x).(*ast.BasicLit); ok && nameShaped(l) {
		lit = l
	}
	if l, ok := ast.Unparen(y).(*ast.BasicLit); ok && nameShaped(l) {
		lit = l
	}
	if lit == nil {
		return
	}
	// Both operands literal: a constant, not dynamic minting.
	_, xLit := ast.Unparen(x).(*ast.BasicLit)
	_, yLit := ast.Unparen(y).(*ast.BasicLit)
	if xLit && yLit {
		return
	}
	if pass.HasDirective(at.Pos(), "name-ok") {
		return
	}
	pass.Reportf(at.Pos(), "variable-name-shaped string built by concatenation with %s; "+
		"use intern.NameBuilder, or justify with //retypd:name-ok", lit.Value)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
