package stm_test

import (
	"testing"

	"repro/internal/race"

	"repro/internal/mem"
	"repro/internal/rinval"
	"repro/internal/rtc"
	"repro/internal/stm"
	"repro/internal/stm/norec"
	"repro/internal/stm/tl2"
)

// These tests pin the allocation-free STM commit fast path (ISSUE 6): a
// steady-state write transaction — begin, read with validation, buffered
// write, lock/validate/publish commit, descriptor recycling — must not
// allocate for NOrec and TL2 (both clock flavors). They run under -short so
// the CI smoke lane enforces them on every PR.

const allocWarmup = 200

func runAllocTx(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pooled paths cannot be allocation-free")
	}
	for i := 0; i < allocWarmup; i++ {
		fn()
	}
	if allocs := testing.AllocsPerRun(1000, fn); allocs > 0 {
		t.Errorf("%s: %.2f allocs/op on the commit path, want 0", name, allocs)
	}
}

// writeTxAllocFree asserts a read-modify-write transaction over a few cells
// is allocation-free once pools and scratch slices are warm.
func writeTxAllocFree(t *testing.T, alg stm.Algorithm) {
	defer alg.Stop()
	cells := [4]*mem.Cell{mem.NewCell(0), mem.NewCell(0), mem.NewCell(0), mem.NewCell(0)}
	body := func(tx stm.Tx) {
		for _, c := range cells {
			tx.Write(c, tx.Read(c)+1)
		}
	}
	runAllocTx(t, alg.Name()+" write tx", func() { alg.Atomic(body) })
}

// readTxAllocFree asserts a read-only transaction is allocation-free.
func readTxAllocFree(t *testing.T, alg stm.Algorithm) {
	defer alg.Stop()
	cells := [4]*mem.Cell{mem.NewCell(1), mem.NewCell(2), mem.NewCell(3), mem.NewCell(4)}
	body := func(tx stm.Tx) {
		var sum uint64
		for _, c := range cells {
			sum += tx.Read(c)
		}
		_ = sum
	}
	runAllocTx(t, alg.Name()+" read tx", func() { alg.Atomic(body) })
}

func TestNOrecWriteTxAllocFree(t *testing.T) { writeTxAllocFree(t, norec.New()) }
func TestNOrecReadTxAllocFree(t *testing.T)  { readTxAllocFree(t, norec.New()) }

func TestTL2WriteTxAllocFree(t *testing.T) { writeTxAllocFree(t, tl2.New()) }
func TestTL2ReadTxAllocFree(t *testing.T)  { readTxAllocFree(t, tl2.New()) }

func TestTL2ShardedWriteTxAllocFree(t *testing.T) { writeTxAllocFree(t, tl2.NewSharded()) }

// RTC and RInval clients are descriptor-driven like the rest since ISSUE 17.
// Measured with this same body at the parent commit: 4.00 allocs/tx each
// (the closure API's adapter plus three escaping closures); the bar is the
// measured value now, 0. AllocsPerRun counts the whole process, so the
// server goroutines' side of the commit is inside the bar too.
func TestRTCClientWriteTxAllocFree(t *testing.T) { writeTxAllocFree(t, rtc.New(rtc.Options{})) }
func TestRTCClientReadTxAllocFree(t *testing.T)  { readTxAllocFree(t, rtc.New(rtc.Options{})) }

func TestRInvalClientWriteTxAllocFree(t *testing.T) { writeTxAllocFree(t, rinval.New(rinval.V1)) }
func TestRInvalClientReadTxAllocFree(t *testing.T)  { readTxAllocFree(t, rinval.New(rinval.V1)) }

// benchWriteTx reports ns/op and allocs/op for an algorithm's write-commit
// fast path (single worker — the allocation trajectory companion to the
// throughput matrix).
func benchWriteTx(b *testing.B, alg stm.Algorithm) {
	defer alg.Stop()
	cells := [4]*mem.Cell{mem.NewCell(0), mem.NewCell(0), mem.NewCell(0), mem.NewCell(0)}
	body := func(tx stm.Tx) {
		for _, c := range cells {
			tx.Write(c, tx.Read(c)+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Atomic(body)
	}
}

func BenchmarkNOrecWriteTx(b *testing.B)      { benchWriteTx(b, norec.New()) }
func BenchmarkTL2WriteTx(b *testing.B)        { benchWriteTx(b, tl2.New()) }
func BenchmarkTL2ShardedWriteTx(b *testing.B) { benchWriteTx(b, tl2.NewSharded()) }
