package solver

import (
	"sort"
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
)

// dedupProg is a program with heavy body duplication: identical leaf
// procedures under different names, wrappers calling class-equal (but
// differently named) callees, register-renamed variants, and a
// recursive procedure that must be excluded.
const dedupProgSrc = `
proc leaf_a
    mov eax, [ebp+8]
    add eax, 1
    ret
endproc

proc leaf_b
    mov eax, [ebp+8]
    add eax, 1
    ret
endproc

proc leaf_c
    mov eax, [ebp+8]
    add eax, 1
    ret
endproc

proc leaf_other
    mov eax, [ebp+8]
    add eax, 2
    ret
endproc

proc regvar_a
    mov ebx, [ebp+8]
    mov eax, ebx
    ret
endproc

proc regvar_b
    mov esi, [ebp+8]
    mov eax, esi
    ret
endproc

proc wrap_a
    push 7
    call leaf_a
    add esp, 4
    ret
endproc

proc wrap_b
    push 7
    call leaf_b
    add esp, 4
    ret
endproc

proc wrap_other
    push 7
    call leaf_other
    add esp, 4
    ret
endproc

proc selfrec
    mov eax, [ebp+8]
    call selfrec
    ret
endproc

proc main
    push 1
    call wrap_a
    add esp, 4
    push 2
    call wrap_b
    add esp, 4
    push 3
    call regvar_a
    add esp, 4
    push 4
    call regvar_b
    add esp, 4
    call selfrec
    ret
endproc
`

// dumpAll renders everything observable about a result, including the
// per-procedure raw constraint sets (sorted rendering), so the golden
// comparison also covers the KeepIntermediates translation path.
func dumpAll(res *Result) string {
	var b strings.Builder
	b.WriteString(res.DumpSchemes())
	b.WriteString("\n===\n")
	b.WriteString(res.DumpSpecialized())
	b.WriteString("\n===\n")
	var names []string
	for n := range res.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if cs := res.Procs[n].Constraints(); cs != nil {
			b.WriteString(n + ":\n" + cs.String() + "\n")
		}
	}
	return b.String()
}

// TestBodyDedupGoldenOnOff: the full observable output — schemes,
// specialized sketches, AND raw generated constraint sets — must be
// byte-identical with body dedup on and off, across cache settings and
// worker counts.
func TestBodyDedupGoldenOnOff(t *testing.T) {
	lat := lattice.Default()
	progs := map[string]*asm.Program{
		"handwritten": asm.MustParse(dedupProgSrc),
		"corpus":      parallelProg(t),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			off := DefaultOptions()
			off.Workers = 1
			off.NoBodyDedup = true
			want := dumpAll(Infer(prog, lat, nil, off))

			cases := []struct {
				name string
				mod  func(*Options)
			}{
				{"on/workers=1", func(o *Options) { o.Workers = 1 }},
				{"on/workers=4", func(o *Options) { o.Workers = 4 }},
				{"on/nocaches", func(o *Options) {
					o.Workers = 2
					o.NoSchemeCache = true
					o.NoShapeCache = true
				}},
				{"off/nocaches", func(o *Options) {
					o.Workers = 2
					o.NoBodyDedup = true
					o.NoSchemeCache = true
					o.NoShapeCache = true
				}},
				{"on/nointermediates", func(o *Options) { o.Workers = 2; o.KeepIntermediates = false }},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					opts := DefaultOptions()
					tc.mod(&opts)
					res := Infer(prog, lat, nil, opts)
					got := dumpAll(res)
					wantHere := want
					if !opts.KeepIntermediates {
						// Constraints are absent; compare the visible part.
						wantHere = dumpAll(Infer(prog, lat, nil, Options{
							MaxSketchDepth: -1, Workers: 1, NoBodyDedup: true,
						}))
					}
					if got != wantHere {
						t.Errorf("output diverged from dedup-off baseline (len %d vs %d)",
							len(got), len(wantHere))
						for i := 0; i < len(got) && i < len(wantHere); i++ {
							if got[i] != wantHere[i] {
								lo := i - 120
								if lo < 0 {
									lo = 0
								}
								hi := i + 120
								if hi > len(got) {
									hi = len(got)
								}
								if hi > len(wantHere) {
									hi = len(wantHere)
								}
								t.Logf("first divergence at byte %d:\n got: …%s…\nwant: …%s…",
									i, got[lo:hi], wantHere[lo:hi])
								break
							}
						}
					}
					if !opts.NoBodyDedup && res.BodyDedupHits == 0 {
						t.Error("body dedup never fired on the duplicate-heavy program")
					}
					if opts.NoBodyDedup && (res.BodyDedupHits != 0 || res.BodyDedupMisses != 0) {
						t.Errorf("NoBodyDedup run reports dedup activity (%d/%d)",
							res.BodyDedupHits, res.BodyDedupMisses)
					}
				})
			}
		})
	}
}

// TestBodyDedupMonomorphic: the monomorphic-calls configuration links
// callee interface variables by bare name — the trickiest rename path
// (no callsite tags) — and must stay byte-identical too.
func TestBodyDedupMonomorphic(t *testing.T) {
	lat := lattice.Default()
	prog := asm.MustParse(dedupProgSrc)
	for _, workers := range []int{1, 4} {
		off := DefaultOptions()
		off.Workers = workers
		off.NoBodyDedup = true
		off.Absint.MonomorphicCalls = true
		want := dumpAll(Infer(prog, lat, nil, off))

		on := DefaultOptions()
		on.Workers = workers
		on.Absint.MonomorphicCalls = true
		res := Infer(prog, lat, nil, on)
		if got := dumpAll(res); got != want {
			t.Errorf("workers=%d: monomorphic output diverged with dedup on (len %d vs %d)",
				workers, len(got), len(want))
		}
		if res.BodyDedupHits == 0 {
			t.Error("body dedup never fired under monomorphic calls")
		}
	}
}

// TestBodyDedupStats sanity-checks the hit accounting on the
// handwritten program: leaf_b/leaf_c dedup against leaf_a, wrap_b
// against wrap_a (their callees are class-equal), regvar_b against
// regvar_a only when raw constraint sets need not be translated
// (register renaming is excluded under KeepIntermediates).
func TestBodyDedupStats(t *testing.T) {
	lat := lattice.Default()
	prog := asm.MustParse(dedupProgSrc)

	opts := DefaultOptions()
	opts.KeepIntermediates = false
	opts.Workers = 1
	res := Infer(prog, lat, nil, opts)
	// leaf_b, leaf_c, wrap_b, regvar_b are members.
	if res.BodyDedupHits != 4 {
		t.Errorf("hits = %d, want 4 (leaf_b, leaf_c, wrap_b, regvar_b)", res.BodyDedupHits)
	}

	keep := DefaultOptions()
	keep.Workers = 1
	resK := Infer(prog, lat, nil, keep)
	// regvar_b drops out: its raw constraint set embeds renamed
	// registers.
	if resK.BodyDedupHits != 3 {
		t.Errorf("hits with KeepIntermediates = %d, want 3", resK.BodyDedupHits)
	}
}

// TestBodyDedupDeterministic: 10 mixed-worker runs with dedup on stay
// byte-identical (class/representative choice must not depend on
// scheduling).
func TestBodyDedupDeterministic(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	var want string
	for i := 0; i < 10; i++ {
		opts := DefaultOptions()
		opts.Workers = 1 + i%4
		got := dumpAll(Infer(prog, lat, nil, opts))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d (workers=%d) diverged from run 0", i, opts.Workers)
		}
	}
}

// TestBodyDedupCorpusEffect: the generated benchmark corpus (the perf
// target of the ROADMAP) must show substantial dedup coverage.
func TestBodyDedupCorpusEffect(t *testing.T) {
	b := corpus.Generate("dedup", 1234, 4000)
	prog := asm.MustParse(b.Source)
	opts := DefaultOptions()
	opts.KeepIntermediates = false
	res := Infer(prog, lattice.Default(), nil, opts)
	total := res.BodyDedupHits + res.BodyDedupMisses
	t.Logf("body dedup: %d hits / %d misses over %d procs", res.BodyDedupHits, res.BodyDedupMisses, len(res.Procs))
	if total == 0 {
		t.Fatal("no procedure was ever fingerprinted")
	}
	if res.BodyDedupHits == 0 {
		t.Error("corpus produced no body-dedup hits")
	}
}
