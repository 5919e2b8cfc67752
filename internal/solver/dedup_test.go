package solver

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/summaries"
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

// dumpAll renders everything observable about a result: its schemes
// and specialized sketches.
func dumpAll(res *Result) string {
	return res.DumpSchemes() + "\n===\n" + res.DumpSpecialized()
}

// generated regenerates the raw constraint set of procedure p from res
// (results keep none): absint.Generate over res's CFG analyses, with the
// callee schemes res published. Callees in p's own SCC get no scheme,
// as in the pipeline, which links same-SCC calls monomorphically.
func generated(res *Result, p string, ao absint.Options) *constraints.Set {
	var own []string
	for _, scc := range res.SCCs {
		if slices.Contains(scc, p) {
			own = scc
			break
		}
	}
	schemeOf := func(name string) *constraints.Scheme {
		if pr, ok := res.Procs[name]; ok && !slices.Contains(own, name) {
			return pr.Scheme
		}
		return nil
	}
	isConst := func(v constraints.Var) bool {
		_, ok := res.Lat.Elem(string(v))
		return ok
	}
	return absint.Generate(res.Infos[p], res.Infos, schemeOf, summaries.Default(), isConst, ao).Constraints
}

// dumpWithRaw is dumpAll followed by every procedure's regenerated raw
// constraint set, in name order: equal dumps mean equal schemes,
// sketches, and the CFG analyses and callee schemes generation reads.
func dumpWithRaw(res *Result, ao absint.Options) string {
	var b strings.Builder
	b.WriteString(dumpAll(res))
	b.WriteString("\n===\n")
	var names []string
	for n := range res.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(n + ":\n" + generated(res, n, ao).String() + "\n")
	}
	return b.String()
}

// TestBodyDedupGoldenOnOff: the full observable output — schemes,
// specialized sketches, and the raw constraint sets regenerated from
// them — must be byte-identical with body dedup on and off, across
// cache settings and worker counts.
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
			want := dumpWithRaw(must(oneShot(bg, prog, lat, off)), off.Absint)

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
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					opts := DefaultOptions()
					tc.mod(&opts)
					res := must(oneShot(bg, prog, lat, opts))
					got := dumpWithRaw(res, opts.Absint)
					if got != want {
						t.Errorf("output diverged from dedup-off baseline (len %d vs %d)",
							len(got), len(want))
						for i := 0; i < len(got) && i < len(want); i++ {
							if got[i] != want[i] {
								lo := i - 120
								if lo < 0 {
									lo = 0
								}
								hi := i + 120
								if hi > len(got) {
									hi = len(got)
								}
								if hi > len(want) {
									hi = len(want)
								}
								t.Logf("first divergence at byte %d:\n got: …%s…\nwant: …%s…",
									i, got[lo:hi], want[lo:hi])
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
		want := dumpWithRaw(must(oneShot(bg, prog, lat, off)), off.Absint)

		on := DefaultOptions()
		on.Workers = workers
		on.Absint.MonomorphicCalls = true
		res := must(oneShot(bg, prog, lat, on))
		if got := dumpWithRaw(res, on.Absint); got != want {
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
// against wrap_a (their callees are class-equal), and regvar_b against
// regvar_a (a scratch-register renaming changes no output).
func TestBodyDedupStats(t *testing.T) {
	lat := lattice.Default()
	prog := asm.MustParse(dedupProgSrc)

	opts := DefaultOptions()
	opts.Workers = 1
	res := must(oneShot(bg, prog, lat, opts))
	// leaf_b, leaf_c, wrap_b, regvar_b are members.
	if res.BodyDedupHits != 4 {
		t.Errorf("hits = %d, want 4 (leaf_b, leaf_c, wrap_b, regvar_b)", res.BodyDedupHits)
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
		got := dumpWithRaw(must(oneShot(bg, prog, lat, opts)), opts.Absint)
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
	res := must(oneShot(bg, prog, lattice.Default(), opts))
	total := res.BodyDedupHits + res.BodyDedupMisses
	t.Logf("body dedup: %d hits / %d misses over %d procs", res.BodyDedupHits, res.BodyDedupMisses, len(res.Procs))
	if total == 0 {
		t.Fatal("no procedure was ever fingerprinted")
	}
	if res.BodyDedupHits == 0 {
		t.Error("corpus produced no body-dedup hits")
	}
}

// TestPublishedSchemesClosed: every scheme F.1 publishes is closed — it
// names only its procedure, lattice constants and its own existentials
// — in polymorphic and monomorphic modes, whether inferSCC simplified
// it or the scheme memo rehydrated it. Body dedup serves a member by
// rerooting its source's scheme, which is exact only for closed ones.
func TestPublishedSchemesClosed(t *testing.T) {
	lat := lattice.Default()
	for _, mono := range []bool{false, true} {
		opts := DefaultOptions()
		opts.NoBodyDedup = true // every scheme comes from inferSCC
		opts.Absint.MonomorphicCalls = mono
		checked := 0
		for seed := int64(1); seed <= 4; seed++ {
			prog := asm.MustParse(corpus.Generate("closed", seed, 1500).Source)
			res := must(oneShot(bg, prog, lat, opts))
			for name, pr := range res.Procs {
				sc := pr.Scheme
				if sc.Root != constraints.Var(name) || !constraints.Closed(sc.Constraints, sc.Root, sc.Existential, defaultConst) {
					t.Errorf("mono=%v seed %d: scheme of %s is not closed: %s", mono, seed, name, sc)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("mono=%v: no scheme checked", mono)
		}
	}
}
