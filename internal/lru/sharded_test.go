package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// applyOps drives the same randomized Add/Get/Do sequence against any
// cache surface, so sharded and unsharded caches can be compared after
// identical histories.
type cacheSurface interface {
	Get(int) (int, bool)
	Add(int, int)
	Do(int, func() (int, bool)) (int, bool)
	Export() []Entry[int, int]
	Stats() (uint64, uint64)
	Len() int
}

func applyOps(c cacheSurface, seed int64, n, keyspace int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := rng.Intn(keyspace)
		switch rng.Intn(3) {
		case 0:
			c.Add(k, k*10)
		case 1:
			c.Get(k)
		default:
			c.Do(k, func() (int, bool) { return k * 10, true })
		}
	}
}

func entriesEqual(a, b []Entry[int, int]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedExportMatchesUnsharded is the wire-compatibility core:
// after an identical sequential op history (no eviction), a sharded
// cache's Export must be byte-for-byte the unsharded cache's Export —
// the property that keeps the PR-5 persisted cache format independent
// of the shard count.
func TestShardedExportMatchesUnsharded(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 13} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			flat := New[int, int](1024, idHash)
			sh := NewSharded[int, int](1024, shards, idHash)
			applyOps(flat, 7, 4000, 200)
			applyOps(sh, 7, 4000, 200)
			if !entriesEqual(flat.Export(), sh.Export()) {
				t.Errorf("sharded(%d) export diverges from unsharded export", shards)
			}
			if fh, fm := flat.Stats(); fh != 0 || fm != 0 {
				sh2, sm := sh.Stats()
				if fh != sh2 || fm != sm {
					t.Errorf("stats diverge: flat %d/%d sharded %d/%d", fh, fm, sh2, sm)
				}
			}
		})
	}
}

// TestShardedExportShardCountInvariant: the same op history exported
// from differently-sharded caches yields identical entry sequences.
func TestShardedExportShardCountInvariant(t *testing.T) {
	var ref []Entry[int, int]
	for i, shards := range []int{1, 2, 4, 8, 16} {
		sh := NewSharded[int, int](512, shards, idHash)
		applyOps(sh, 99, 3000, 150)
		exp := sh.Export()
		if i == 0 {
			ref = exp
			continue
		}
		if !entriesEqual(ref, exp) {
			t.Errorf("export with %d shards differs from 1-shard export", shards)
		}
	}
}

// TestShardedImportRoundTrip: Export → Import into a cache with a
// different shard count → Export must reproduce the entries (recency
// preserved), the cross-process / cross-configuration persistence path.
func TestShardedImportRoundTrip(t *testing.T) {
	src := NewSharded[int, int](256, 8, idHash)
	applyOps(src, 3, 2000, 100)
	exp := src.Export()

	for _, shards := range []int{1, 3, 8} {
		dst := NewSharded[int, int](256, shards, idHash)
		dst.Import(exp)
		if !entriesEqual(exp, dst.Export()) {
			t.Errorf("import into %d shards did not preserve entries+recency", shards)
		}
		if h, m := dst.Stats(); h != 0 || m != 0 {
			t.Errorf("Import counted hits/misses: %d/%d", h, m)
		}
	}

	// And into a plain unsharded cache (old-format consumers).
	flat := New[int, int](256, idHash)
	flat.Import(exp)
	if !entriesEqual(exp, flat.Export()) {
		t.Error("import into unsharded cache did not preserve entries+recency")
	}
}

// TestShardedSingleFlightPerShard: concurrent misses on the same key
// coalesce to exactly one compute, and the accounting is exact — one
// miss for the leader, hits for every waiter — regardless of sharding.
func TestShardedSingleFlightPerShard(t *testing.T) {
	sh := NewSharded[int, int](64, 8, idHash)
	const callers = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, ok := sh.Do(42, func() (int, bool) {
				computes.Add(1)
				return 420, true
			})
			if !ok || v != 420 {
				t.Errorf("Do = %d,%v", v, ok)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (single flight)", n)
	}
	h, m := sh.Stats()
	if m != 1 || h != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", h, m, callers-1)
	}
}

// TestShardedDistinctKeysDoNotSerialize: a slow compute on one key must
// not block a compute on a key in a different shard (the contention the
// sharding exists to remove). A same-shard block would deadlock here.
func TestShardedDistinctKeysDoNotSerialize(t *testing.T) {
	sh := NewSharded[int, int](64, 8, idHash)
	var k1, k2 = 1, 2
	if sh.shardFor(idHash(k1)) == sh.shardFor(idHash(k2)) {
		// Pick a second key landing in a different shard.
		for k2 = 3; sh.shardFor(idHash(k2)) == sh.shardFor(idHash(k1)); k2++ {
		}
	}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sh.Do(k1, func() (int, bool) {
			close(started)
			<-release
			return 1, true
		})
		close(done)
	}()
	<-started
	// While k1's compute is parked, k2 must complete.
	if v, ok := sh.Do(k2, func() (int, bool) { return 2, true }); !ok || v != 2 {
		t.Fatalf("Do(k2) = %d,%v while k1 in flight", v, ok)
	}
	close(release)
	<-done
}

// TestShardedEvictionBound: total entry count stays within the
// per-shard bounds (sum of ceil-divided capacities).
func TestShardedEvictionBound(t *testing.T) {
	const capacity, shards = 100, 8
	sh := NewSharded[int, int](capacity, shards, idHash)
	for i := 0; i < 10*capacity; i++ {
		sh.Add(i, i)
	}
	per := (capacity + shards - 1) / shards
	if max := per * shards; sh.Len() > max {
		t.Errorf("Len = %d exceeds sharded bound %d", sh.Len(), max)
	}
	if sh.Len() < capacity/2 {
		t.Errorf("Len = %d suspiciously low for capacity %d", sh.Len(), capacity)
	}
}

// TestNewShardedClamps: shard count defaults and clamps sanely.
func TestNewShardedClamps(t *testing.T) {
	if got := NewSharded[int, int](1024, 0, idHash).Shards(); got != DefaultShards {
		t.Errorf("shards<=0 → %d, want DefaultShards=%d", got, DefaultShards)
	}
	if got := NewSharded[int, int](4, 16, idHash).Shards(); got != 4 {
		t.Errorf("shards>capacity → %d, want 4", got)
	}
	if got := NewSharded[int, int](1, 1, idHash).Shards(); got != 1 {
		t.Errorf("minimal cache → %d shards, want 1", got)
	}
	// Automatic selection backs off for small capacities: per-shard
	// eviction must not degrade exact LRU where contention cannot pay
	// for it.
	if got := NewSharded[int, int](2, 0, idHash).Shards(); got != 1 {
		t.Errorf("tiny auto-sharded cache → %d shards, want 1", got)
	}
	if got := NewSharded[int, int](minAutoShardCap*DefaultShards-1, 0, idHash).Shards(); got >= DefaultShards {
		t.Errorf("mid auto-sharded cache → %d shards, want < %d", got, DefaultShards)
	}
	// An explicit shard count is honored even when tiny.
	if got := NewSharded[int, int](4, 2, idHash).Shards(); got != 2 {
		t.Errorf("explicit tiny shards → %d, want 2", got)
	}
}

// TestAutoShardSmallCapacityExactLRU: a small auto-sharded cache must
// evict in exact global LRU order — the regression here is a capacity-2
// cache splitting into two single-entry shards and evicting by shard
// residence instead of recency.
func TestAutoShardSmallCapacityExactLRU(t *testing.T) {
	c := NewSharded[int, int](2, 0, idHash)
	c.Add(1, 1)
	c.Add(2, 2)
	c.Add(3, 3) // must evict 1, the global LRU victim
	if _, ok := c.Get(1); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get(2); !ok {
		t.Error("second entry was evicted out of LRU order")
	}
	if _, ok := c.Get(3); !ok {
		t.Error("newest entry missing")
	}
}

// BenchmarkShardedContention measures 8 goroutines hammering hit-path
// lookups, sharded vs unsharded — the lock convoying the solver's
// memo caches showed before they were sharded.
func BenchmarkShardedContention(b *testing.B) {
	const keyspace = 512
	run := func(b *testing.B, c cacheSurface) {
		for i := 0; i < keyspace; i++ {
			c.Add(i, i)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				c.Get(i % keyspace)
				i++
			}
		})
	}
	b.Run("unsharded", func(b *testing.B) {
		b.SetParallelism(8)
		run(b, New[int, int](keyspace, idHash))
	})
	b.Run("sharded8", func(b *testing.B) {
		b.SetParallelism(8)
		run(b, NewSharded[int, int](keyspace, 8, idHash))
	})
}

// TestShardedDoLeaderPanicReleasesWaiters: a leader whose compute
// panics inside a sharded cache must release every concurrent waiter on
// the same key (with ok == false), re-panic to its own caller, and
// leave the shard's single-flight table clean so a later Do computes
// fresh. A regression here strands solver workers forever on the memo
// lock the first time a contained task fault hits a cache compute.
func TestShardedDoLeaderPanicReleasesWaiters(t *testing.T) {
	sh := NewSharded[int, int](64, 8, idHash)
	const waiters = 8

	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	var released atomic.Int64

	// Leader: panics mid-compute after the waiters have queued.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate to its caller")
			}
		}()
		sh.Do(7, func() (int, bool) {
			close(leaderIn)
			// Give the waiters time to join the in-flight chain. A missed
			// window only weakens the test (waiters become leaders of
			// their own flights); it cannot produce a false failure.
			time.Sleep(20 * time.Millisecond)
			panic("leader boom")
		})
	}()

	<-leaderIn
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Waiters must return, not hang. ok may be false (released by
			// the panicking leader) or true (this goroutine led its own
			// flight after the chain was cleaned).
			sh.Do(7, func() (int, bool) { return 70, true })
			released.Add(1)
		}()
	}
	wg.Wait()

	if released.Load() != waiters {
		t.Fatalf("only %d/%d waiters returned", released.Load(), waiters)
	}
	// The flight table is clean: a fresh Do computes and caches normally.
	if v, ok := sh.Do(7, func() (int, bool) { return 71, true }); v != 70 && (!ok || v != 71) {
		t.Errorf("post-panic Do = %d,%v; want a normal compute", v, ok)
	}
	if v, ok := sh.Get(7); !ok || (v != 70 && v != 71) {
		t.Errorf("post-panic Get = %d,%v; want cached value", v, ok)
	}
}
