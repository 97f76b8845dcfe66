package stm_test

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/stm/glock"
	"repro/internal/stm/invalstm"
	"repro/internal/stm/norec"
	"repro/internal/stm/ringsw"
	"repro/internal/stm/tl2"
	"repro/internal/stm/tml"
)

// algorithms returns fresh instances of every STM under test.
func algorithms() []stm.Algorithm {
	return []stm.Algorithm{
		norec.New(), tl2.New(), tml.New(), ringsw.New(),
		invalstm.New(), glock.New(),
	}
}

// stressIters scales a stress-test iteration count down under -short (the
// CI race job) while keeping full coverage in the default run.
func stressIters(full int) int {
	if testing.Short() {
		return full / 5
	}
	return full
}

func TestCounterIncrement(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			const workers = 8
			each := stressIters(250)
			c := mem.NewCell(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						alg.Atomic(func(tx stm.Tx) {
							tx.Write(c, tx.Read(c)+1)
						})
					}
				}()
			}
			wg.Wait()
			if got := c.Load(); got != uint64(workers*each) {
				t.Fatalf("counter = %d, want %d", got, workers*each)
			}
		})
	}
}

func TestBankTransferInvariant(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			const accounts = 16
			const initial = 1000
			const workers = 8
			each := stressIters(200)
			cells := make([]*mem.Cell, accounts)
			for i := range cells {
				cells[i] = mem.NewCell(initial)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						from := (seed + i) % accounts
						to := (seed + i*7 + 1) % accounts
						if from == to {
							to = (to + 1) % accounts
						}
						alg.Atomic(func(tx stm.Tx) {
							a := tx.Read(cells[from])
							b := tx.Read(cells[to])
							if a == 0 {
								return
							}
							tx.Write(cells[from], a-1)
							tx.Write(cells[to], b+1)
						})
					}
				}(w)
			}
			wg.Wait()
			var total uint64
			for _, c := range cells {
				total += c.Load()
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d (money conserved)", total, accounts*initial)
			}
		})
	}
}

// TestReadConsistency checks opacity-style snapshot consistency: two cells
// always updated together must never be observed unequal.
func TestReadConsistency(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			a, b := mem.NewCell(0), mem.NewCell(0)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					alg.Atomic(func(tx stm.Tx) {
						tx.Write(a, i)
						tx.Write(b, i)
					})
				}
			}()
			for i := 0; i < stressIters(2000); i++ {
				alg.Atomic(func(tx stm.Tx) {
					va := tx.Read(a)
					vb := tx.Read(b)
					if va != vb {
						t.Errorf("torn read: a=%d b=%d", va, vb)
					}
				})
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestWriteSetReadAfterWrite(t *testing.T) {
	var ws stm.WriteSet
	cells := make([]*mem.Cell, 20)
	for i := range cells {
		cells[i] = mem.NewCell(0)
		ws.Put(cells[i], uint64(i))
	}
	// Force past the map threshold and overwrite.
	ws.Put(cells[3], 333)
	if v, ok := ws.Get(cells[3]); !ok || v != 333 {
		t.Fatalf("Get = %d,%v; want 333,true", v, ok)
	}
	if _, ok := ws.Get(mem.NewCell(0)); ok {
		t.Fatal("Get of unwritten cell should miss")
	}
	if ws.Len() != 20 {
		t.Fatalf("Len = %d, want 20", ws.Len())
	}
	ws.Publish()
	if cells[3].Load() != 333 || cells[7].Load() != 7 {
		t.Fatal("Publish did not store buffered values")
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Fatal("Reset should empty the set")
	}
}

func TestProfileAccounting(t *testing.T) {
	s := norec.New()
	prof := &stm.Profile{}
	s.SetProfile(prof)
	c := mem.NewCell(0)
	for i := 0; i < 50; i++ {
		s.Atomic(func(tx stm.Tx) { tx.Write(c, tx.Read(c)+1) })
	}
	snap := prof.Snapshot()
	if snap.Commits != 50 {
		t.Fatalf("Commits = %d, want 50", snap.Commits)
	}
	if snap.TotalNS <= 0 {
		t.Fatal("TotalNS should be positive")
	}
	if snap.OtherNS() < 0 {
		t.Fatal("OtherNS must be non-negative")
	}
}
