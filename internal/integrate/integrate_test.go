package integrate_test

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/integrate"
	"repro/internal/mem"
	"repro/internal/otb"
)

func algorithms() []integrate.Algorithm {
	return []integrate.Algorithm{integrate.NewOTBNOrec(), integrate.NewOTBTL2()}
}

// stressIters scales a stress-test iteration count down under -short (the
// CI race job) while keeping full coverage in the default run.
func stressIters(full int) int {
	if testing.Short() {
		return full / 5
	}
	return full
}

func TestMixedSetAndMemory(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			set := otb.NewListSet()
			success := mem.NewCell(0)
			failure := mem.NewCell(0)
			const workers = 6
			each := stressIters(150)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, 3))
					for i := 0; i < each; i++ {
						k := int64(rng.IntN(64))
						alg.Atomic(func(ctx *integrate.Ctx) {
							// Algorithm 7 of the paper: a set op and counter
							// updates must be atomic together.
							if set.Add(ctx.Sem(), k) {
								ctx.Write(success, ctx.Read(success)+1)
							} else {
								ctx.Write(failure, ctx.Read(failure)+1)
							}
						})
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			total := success.Load() + failure.Load()
			if total != uint64(workers*each) {
				t.Fatalf("counter total = %d, want %d", total, workers*each)
			}
			// Every successful add inserted a distinct key exactly once.
			if got := uint64(set.Len()); got != success.Load() {
				t.Fatalf("set len = %d, successful adds = %d", got, success.Load())
			}
		})
	}
}

// TestOTBNOrecCommitValidatesLastOperation lets other transactions commit
// between a semantic operation's traversal and its post-validation (the
// otb.validate.mid failpoint sits exactly there). The operation then logs
// entries older than the snapshot OTB-NOrec commits at; unless commit
// re-checks them, two transactions insert the same key.
func TestOTBNOrecCommitValidatesLastOperation(t *testing.T) {
	defer failpoint.Arm("otb.validate.mid", failpoint.Spec{Action: failpoint.Delay, Delay: 20 * time.Microsecond})()
	alg := integrate.NewOTBNOrec()
	defer alg.Stop()
	set := otb.NewSkipSet()
	counter := mem.NewCell(0) // element count, updated in-tx
	const workers = 4
	const keys = 4
	each := stressIters(250)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 19))
			for i := 0; i < each; i++ {
				k := int64(rng.IntN(keys))
				alg.Atomic(func(ctx *integrate.Ctx) {
					if set.Remove(ctx.Sem(), k) {
						ctx.Write(counter, ctx.Read(counter)-1)
					} else {
						set.Add(ctx.Sem(), k)
						ctx.Write(counter, ctx.Read(counter)+1)
					}
				})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if got, want := uint64(set.Len()), counter.Load(); got != want {
		t.Fatalf("set len = %d (%v), in-tx counter = %d", got, set.Keys(), want)
	}
}

func TestMixedSkipSetPairInvariant(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			set := otb.NewSkipSet()
			counter := mem.NewCell(0) // net element count, updated in-tx
			const pairs = 16
			const offset = 400
			const workers = 6
			each := stressIters(100)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, 17))
					for i := 0; i < each; i++ {
						k := int64(rng.IntN(pairs)) + 1
						alg.Atomic(func(ctx *integrate.Ctx) {
							sem := ctx.Sem()
							if set.Contains(sem, k) {
								set.Remove(sem, k)
								set.Remove(sem, k+offset)
								ctx.Write(counter, ctx.Read(counter)-2)
							} else {
								set.Add(sem, k)
								set.Add(sem, k+offset)
								ctx.Write(counter, ctx.Read(counter)+2)
							}
						})
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			if got, want := uint64(set.Len()), counter.Load(); got != want {
				t.Fatalf("set len = %d, in-tx counter = %d", got, want)
			}
			present := map[int64]bool{}
			for _, k := range set.Keys() {
				present[k] = true
			}
			for k := int64(1); k <= pairs; k++ {
				if present[k] != present[k+offset] {
					t.Fatalf("pair invariant broken for %d", k)
				}
			}
		})
	}
}

func TestTwoSetsOneTransaction(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			src := otb.NewListSet()
			dst := otb.NewSkipSet()
			alg.Atomic(func(ctx *integrate.Ctx) {
				for i := int64(0); i < 20; i++ {
					src.Add(ctx.Sem(), i)
				}
			})
			// Move all elements atomically, one per transaction.
			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(base int64) {
					defer wg.Done()
					for i := base; i < 20; i += workers {
						alg.Atomic(func(ctx *integrate.Ctx) {
							if src.Remove(ctx.Sem(), i) {
								dst.Add(ctx.Sem(), i)
							}
						})
					}
				}(int64(w))
			}
			wg.Wait()
			if src.Len() != 0 {
				t.Fatalf("src len = %d, want 0", src.Len())
			}
			if dst.Len() != 20 {
				t.Fatalf("dst len = %d, want 20", dst.Len())
			}
		})
	}
}

func TestMemoryOnlyTransactions(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			c := mem.NewCell(0)
			const workers = 8
			each := stressIters(200)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						alg.Atomic(func(ctx *integrate.Ctx) {
							ctx.Write(c, ctx.Read(c)+1)
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

// TestOpacityAcrossLayers checks that a transaction never observes the
// memory counter out of sync with the set size mid-execution, even while
// writers continuously update both.
func TestOpacityAcrossLayers(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			defer alg.Stop()
			set := otb.NewListSet()
			size := mem.NewCell(0)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := int64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					k++
					key := k
					alg.Atomic(func(ctx *integrate.Ctx) {
						if set.Add(ctx.Sem(), key%50) {
							ctx.Write(size, ctx.Read(size)+1)
						} else if set.Remove(ctx.Sem(), key%50) {
							ctx.Write(size, ctx.Read(size)-1)
						}
					})
				}
			}()
			for i := 0; i < stressIters(400); i++ {
				alg.Atomic(func(ctx *integrate.Ctx) {
					n := ctx.Read(size)
					// Count two sample keys transactionally; their combined
					// presence can never exceed the tracked size.
					present := uint64(0)
					if set.Contains(ctx.Sem(), 1) {
						present++
					}
					if set.Contains(ctx.Sem(), 2) {
						present++
					}
					if present > n {
						t.Errorf("observed %d present keys with size=%d", present, n)
					}
				})
			}
			close(stop)
			wg.Wait()
			if got, want := uint64(set.Len()), size.Load(); got != want {
				t.Fatalf("final set len %d != counter %d", got, want)
			}
		})
	}
}
