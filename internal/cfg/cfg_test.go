package cfg

import (
	"fmt"
	"testing"

	"retypd/internal/asm"
)

func analyze(t *testing.T, src string) *ProcInfo {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog.Procs[0])
}

// TestStackDelta tracks esp through a standard prologue/epilogue.
func TestStackDelta(t *testing.T) {
	pi := analyze(t, `
proc f
    push ebp
    mov ebp, esp
    sub esp, 8
    mov eax, [ebp+8]
    mov [esp+4], eax
    leave
    ret
endproc
`)
	// At the body load (inst 3): esp = -12, ebp = -4.
	if !pi.ESPIn[3].Known || pi.ESPIn[3].Delta != -12 {
		t.Errorf("esp before inst 3 = %+v", pi.ESPIn[3])
	}
	if !pi.EBPIn[3].Known || pi.EBPIn[3].Delta != -4 {
		t.Errorf("ebp before inst 3 = %+v", pi.EBPIn[3])
	}
	// [ebp+8] resolves to the first argument slot (+4).
	if off, ok := pi.SlotOf(3, asm.Mem(asm.EBP, 8)); !ok || off != 4 {
		t.Errorf("slot of [ebp+8] = %d, %v", off, ok)
	}
	// [esp+4] at inst 4 resolves to local slot -8.
	if off, ok := pi.SlotOf(4, asm.Mem(asm.ESP, 4)); !ok || off != -8 {
		t.Errorf("slot of [esp+4] = %d, %v", off, ok)
	}
	if len(pi.FormalIns) != 1 || pi.FormalIns[0].ParamName() != "stack0" {
		t.Errorf("formals: %v", pi.FormalIns)
	}
}

// TestStackDeltaJoin: a diamond with unbalanced pushes makes esp
// unknown at the join.
func TestStackDeltaJoin(t *testing.T) {
	pi := analyze(t, `
proc f
    test eax, eax
    jz other
    push eax
    jmp join
other:
    nop
join:
    mov eax, [esp+4]
    ret
endproc
`)
	joinIdx := pi.Proc.Labels["join"]
	if pi.ESPIn[joinIdx].Known {
		t.Errorf("esp should be unknown at unbalanced join, got %+v", pi.ESPIn[joinIdx])
	}
}

// TestRegisterParams: the push-ecx idiom makes ecx a conservative
// register parameter (§2.5), while written registers do not.
func TestRegisterParams(t *testing.T) {
	pi := analyze(t, `
proc f
    push ecx
    mov eax, [esp+8]
    add esp, 4
    ret
endproc
`)
	foundEcx := false
	for _, l := range pi.FormalIns {
		if !l.IsSlot && l.Reg == asm.ECX {
			foundEcx = true
		}
	}
	if !foundEcx {
		t.Errorf("push ecx should report ecx live-in: %v", pi.FormalIns)
	}
}

// TestReachingDefsLoop reproduces the close_last reaching-def facts:
// at the loop body load, edx has two reaching definitions.
func TestReachingDefsLoop(t *testing.T) {
	pi := analyze(t, `
proc f
    mov edx, [esp+4]
    jmp l2
l1:
    mov edx, eax
l2:
    mov eax, [edx]
    test eax, eax
    jnz l1
    ret
endproc
`)
	var defs []DefID
	pi.WalkDefs(func(idx int, reach map[Loc][]DefID) {
		if idx == pi.Proc.Labels["l2"] {
			defs = append([]DefID(nil), reach[RegLoc(asm.EDX)]...)
		}
	})
	if len(defs) != 2 {
		t.Fatalf("edx should have 2 reaching defs at the loop head, got %v", defs)
	}
}

// TestHasOut: eax defined on the path to ret.
func TestHasOut(t *testing.T) {
	pi := analyze(t, `
proc f
    mov eax, [esp+4]
    ret
endproc
`)
	if !pi.HasOut {
		t.Error("f returns a value")
	}
	pi = analyze(t, `
proc g
    mov ecx, [esp+4]
    ret
endproc
`)
	if pi.HasOut {
		t.Error("g does not return a value")
	}
}

// TestHasOutAcrossBlocks: an eax definition counts when it reaches a
// ret through other blocks, and not when only an unreachable block or a
// block off every path to the ret defines eax.
func TestHasOutAcrossBlocks(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      bool
	}{
		{"defined-before-branch", `
proc f
    mov eax, [esp+4]
    test eax, eax
    jz out
    mov ecx, eax
out:
    ret
endproc
`, true},
		{"defined-in-loop-body", `
proc f
    mov ecx, [esp+4]
    jmp head
body:
    mov eax, ecx
head:
    test ecx, ecx
    jnz body
    ret
endproc
`, true},
		{"unreachable-definition", `
proc f
    mov ecx, [esp+4]
    jmp out
dead:
    mov eax, ecx
out:
    ret
endproc
`, false},
	} {
		if got := analyze(t, tc.src).HasOut; got != tc.want {
			t.Errorf("%s: HasOut = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStackFormalsFillGaps: the argument area below the highest stack
// parameter read is contiguous.
func TestStackFormalsFillGaps(t *testing.T) {
	pi := analyze(t, `
proc f
    mov eax, [esp+4]
    add eax, [esp+12]
    ret
endproc
`)
	var got []string
	for _, l := range pi.FormalIns {
		got = append(got, l.ParamName())
	}
	if want := "[stack0 stack4 stack8]"; fmt.Sprint(got) != want {
		t.Errorf("formals = %v, want %s", got, want)
	}
}

// TestCallGraphSCC: mutual recursion forms one SCC; SCC order is
// bottom-up.
func TestCallGraphSCC(t *testing.T) {
	prog, err := asm.Parse(`
proc a
    call b
    ret
endproc
proc b
    call a
    call leaf
    ret
endproc
proc leaf
    ret
endproc
proc top
    call a
    ret
endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	cg := BuildCallGraph(prog)
	pos := map[string]int{}
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			pos[p] = i
		}
	}
	if pos["a"] != pos["b"] {
		t.Error("a and b must share an SCC")
	}
	if !(pos["leaf"] < pos["a"] && pos["a"] < pos["top"]) {
		t.Errorf("SCC order not bottom-up: %v", cg.SCCs)
	}
}

// TestLoopCarriedReachingDef: in a single-block self-loop, the block's
// own definitions reach its entry via the back edge (the loop-carried
// state the reaching-defs fixpoint must not drop).
func TestLoopCarriedReachingDef(t *testing.T) {
	prog, err := asm.Parse(`
proc spin
top:
  mov ebx, 5
  jz top
endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	pi := Analyze(prog.Procs[0])
	found := false
	for _, d := range pi.ReachEntry(0)[RegLoc(asm.EBX)] {
		if d == DefID(0) {
			found = true
		}
	}
	if !found {
		t.Errorf("loop-carried def of ebx missing from block-entry reach state: %v", pi.ReachEntry(0))
	}
}

// TestTailCallDetection: jmp to another proc is a tail call and
// inherits HasOut.
func TestTailCallDetection(t *testing.T) {
	prog, err := asm.Parse(`
proc wrap
    jmp inner
endproc
proc inner
    mov eax, [esp+4]
    ret
endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	infos := AnalyzeProgram(prog)
	if len(infos["wrap"].TailCalls) != 1 {
		t.Error("tail call not detected")
	}
	if !infos["wrap"].HasOut {
		t.Error("wrap should inherit HasOut from inner")
	}
}
