package recovery

import (
	"testing"
	"time"

	"repro/internal/mvotb"
	"repro/internal/otb"
)

// mvotbSet builds a multi-version runtime with an aggressive background
// sweeper (1ms) and returns a read-write transaction body: a snapshot read,
// then an updater transaction carrying both a semantic read and a write, so
// the commit.install window (locks held, read set validated, versions not
// yet published) is reached on every run. The gc.sweep failpoint is
// provoked by the background collector itself — run only has to keep the
// process alive long enough for a tick — and is recovered inside the GC
// goroutine: a crashed sweep must not kill collection, let alone the
// process.
func mvotbSet(t *testing.T) (func(int64), func(int64), func()) {
	rt := mvotb.New(mvotb.Options{GCInterval: time.Millisecond})
	set := rt.NewSet(16)
	run := func(k int64) {
		rt.ReadOnly(func(x *mvotb.STx) { set.SnapContains(x, k%16) })
		otb.Atomic(nil, func(tx *otb.Tx) {
			set.Contains(tx, (k+1)%16)
			if k%2 == 0 {
				set.Add(tx, k%16)
			} else {
				set.Remove(tx, k%16)
			}
		})
	}
	return run, nil, rt.Stop
}

func init() {
	scenarios = append(scenarios,
		scenario{fp: "mvotb.commit.install", recovered: false, mk: mvotbSet},
		scenario{fp: "mvotb.gc.sweep", recovered: true, mk: mvotbSet},
	)
}
