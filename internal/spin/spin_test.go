package spin

import (
	"sync"
	"testing"
)

func TestSeqLockBasics(t *testing.T) {
	var l SeqLock
	if v := l.Load(); v != 0 || IsLocked(v) {
		t.Fatalf("fresh lock: v=%d", v)
	}
	if !l.TryLock(0) {
		t.Fatal("TryLock(0) on fresh lock should succeed")
	}
	if v := l.Load(); !IsLocked(v) || v != 1 {
		t.Fatalf("after lock: v=%d", v)
	}
	if l.TryLock(1) {
		t.Fatal("TryLock on held lock must fail")
	}
	l.Unlock()
	if v := l.Load(); IsLocked(v) || v != 2 {
		t.Fatalf("after unlock: v=%d", v)
	}
	if l.TryLock(0) {
		t.Fatal("TryLock with stale version must fail")
	}
}

func TestSeqLockUnlockPanicsWhenFree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of free lock should panic")
		}
	}()
	var l SeqLock
	l.Unlock()
}

func TestSeqLockMutualExclusion(t *testing.T) {
	var l SeqLock
	var ctr Counters
	shared := 0
	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Lock(&ctr)
				shared++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != workers*each {
		t.Fatalf("shared = %d, want %d (mutual exclusion broken)", shared, workers*each)
	}
}

// TestSeqLockRestores: UnlockUnchanged restores the version an aborted
// holder found, and Unlock advances it.
func TestSeqLockRestores(t *testing.T) {
	var l SeqLock
	v0 := l.Load()
	if !l.TryLock(l.Load()) {
		t.Fatal("TryLock on free lock")
	}
	if l.TryLock(l.Load()) {
		t.Fatal("TryLock on held lock must fail")
	}
	l.UnlockUnchanged()
	if l.Load() != v0 {
		t.Fatal("UnlockUnchanged must restore the version")
	}
	l.TryLock(l.Load())
	l.Unlock()
	if l.Load() == v0 {
		t.Fatal("Unlock must advance the version")
	}
	if IsLocked(l.Load()) {
		t.Fatal("lock should be free")
	}
}

func TestWaitUnlockedReturnsEven(t *testing.T) {
	var l SeqLock
	l.TryLock(0)
	done := make(chan uint64, 1)
	go func() { done <- l.WaitUnlocked(nil) }()
	l.Unlock()
	if v := <-done; IsLocked(v) {
		t.Fatalf("WaitUnlocked returned odd version %d", v)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.IncCAS() // must not panic
	c.IncSpin()
	var real Counters
	real.IncCAS()
	real.IncSpin()
	real.IncSpin()
	casf, spins := real.Snapshot()
	if casf != 1 || spins != 2 {
		t.Fatalf("counters = %d,%d; want 1,2", casf, spins)
	}
	real.Reset()
	casf, spins = real.Snapshot()
	if casf != 0 || spins != 0 {
		t.Fatal("Reset should zero counters")
	}
}

func TestBackoffAlwaysYields(t *testing.T) {
	// A spinning goroutine using Backoff must not starve another goroutine
	// on GOMAXPROCS=1: the flag setter below only runs if Wait yields.
	done := make(chan struct{})
	flag := make(chan struct{}, 1)
	go func() {
		flag <- struct{}{}
		close(done)
	}()
	var b Backoff
	for {
		select {
		case <-done:
			return
		default:
			b.Wait()
		}
	}
}
