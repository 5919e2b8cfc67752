// Fixtures for the nameintern analyzer inside a targeted package
// (path suffix internal/absint).
package absint

import "fmt"

func flagSprintf(base string, i int) string {
	return fmt.Sprintf("%s!reg@%d", base, i) // want `variable-name-shaped string minted with fmt.Sprintf`
}

func flagCallsiteTag(callee, caller string, inst int) string {
	return fmt.Sprintf("%s@%s!%d", callee, caller, inst) // want `minted with fmt.Sprintf`
}

func flagScope(slot int) string {
	return fmt.Sprintf(";%d;", slot) // want `minted with fmt.Sprintf`
}

func flagScopeConcat(p string) string {
	return ";" + p // want `built by concatenation`
}

func flagConcat(p, reg string) string {
	return p + "!" + reg // want `built by concatenation`
}

func flagConcatAssign(p, suffix string) string {
	p += "@" + suffix // want `built by concatenation`
	return p
}

func okPlainSprintf(a, b string) string {
	return fmt.Sprintf("%s_%s", a, b)
}

func okPlainConcat(a, b string) string {
	return a + "_" + b
}

func okConstant() string {
	return "p!zero" + "!tail" // two literals: a constant, not minting
}

func okJustified(p string) error {
	//retypd:name-ok error text mentioning the grammar, not a minted name
	return fmt.Errorf("%s", "cannot classify @"+p)
}

func okErrorf(p string) error {
	return fmt.Errorf("bad name %q: want base!qual@idx", p)
}
