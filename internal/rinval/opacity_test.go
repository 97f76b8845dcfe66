package rinval_test

import (
	"fmt"
	"testing"

	"repro/internal/lincheck"
	"repro/internal/rinval"
)

// TestOpacityRInval records contended transactional workloads against each
// version and checks that some commit order of the committed transactions
// explains every read, respects real-time order, and leaves each aborted
// attempt with a consistent view (see internal/lincheck).
//
// A commit that waits on a server stretches each transaction's real-time
// interval, and the witness search grows steeply with overlapping
// intervals: on a 2-vCPU machine under -race, one 120-transaction V3
// history took up to 776k search steps (72 s), a 60-transaction one at most
// 2.8k (73 ms). So the test checks several short histories rather than one
// long one.
func TestOpacityRInval(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	for _, v := range versions() {
		t.Run(fmt.Sprintf("RInval-V%d", v), func(t *testing.T) {
			s := rinval.New(v)
			defer s.Stop()
			for r := range rounds {
				lincheck.StressSTM(t, s, lincheck.DefaultSTMConfig(109+int64(r)).Scaled(4))
			}
		})
	}
}
