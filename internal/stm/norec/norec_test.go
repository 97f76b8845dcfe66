package norec

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
)

func TestReadYourOwnWrites(t *testing.T) {
	s := New()
	c := mem.NewCell(1)
	s.Atomic(func(tx stm.Tx) {
		if tx.Read(c) != 1 {
			t.Error("initial read wrong")
		}
		tx.Write(c, 2)
		if tx.Read(c) != 2 {
			t.Error("read-after-write must see the buffered value")
		}
	})
	if c.Load() != 2 {
		t.Fatal("commit did not publish")
	}
}

func TestReadOnlyCommitsWithoutClockBump(t *testing.T) {
	s := New()
	c := mem.NewCell(5)
	before := s.clock.Load()
	s.Atomic(func(tx stm.Tx) { tx.Read(c) })
	if after := s.clock.Load(); after != before {
		t.Fatalf("read-only transaction moved the clock %d -> %d", before, after)
	}
}

func TestWriterBumpsClockByTwo(t *testing.T) {
	s := New()
	c := mem.NewCell(0)
	before := s.clock.Load()
	s.Atomic(func(tx stm.Tx) { tx.Write(c, 1) })
	after := s.clock.Load()
	if after != before+2 {
		t.Fatalf("writer moved the clock %d -> %d, want +2", before, after)
	}
	if spin.IsLocked(after) {
		t.Fatal("clock left locked")
	}
}

func TestSnapshotExtensionOnClockMove(t *testing.T) {
	// A concurrent commit between two reads must extend (revalidate) the
	// snapshot rather than return torn values.
	s := New()
	a, b := mem.NewCell(1), mem.NewCell(1)
	readerIn := make(chan struct{})
	readerGo := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Atomic(func(tx stm.Tx) {
			va := tx.Read(a)
			select {
			case <-readerIn: // signal only on the first attempt
			default:
			}
			<-readerGo
			vb := tx.Read(b)
			// Either both old or both new; never mixed. If the writer's
			// commit invalidated va, this attempt aborts and retries with
			// both new values.
			if va != vb {
				t.Errorf("torn read: a=%d b=%d", va, vb)
			}
		})
	}()
	// Wait for the reader to read a, then commit a conflicting write.
	readerIn <- struct{}{}
	s.Atomic(func(tx stm.Tx) {
		tx.Write(a, 2)
		tx.Write(b, 2)
	})
	close(readerGo)
	<-done
}

func TestAbortStatsCount(t *testing.T) {
	s := New()
	if s.Commits() != 0 {
		t.Fatal("fresh instance has commits")
	}
	c := mem.NewCell(0)
	for i := 0; i < 10; i++ {
		s.Atomic(func(tx stm.Tx) { tx.Write(c, tx.Read(c)+1) })
	}
	if s.Commits() != 10 {
		t.Fatalf("commits = %d, want 10", s.Commits())
	}
}
