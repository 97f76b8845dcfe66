package rtc_test

import (
	"testing"

	"repro/internal/lincheck"
	"repro/internal/rtc"
)

// TestOpacityRTC records contended transactional workloads against each
// server configuration and checks that some commit order of the committed
// transactions explains every read, respects real-time order, and leaves
// each aborted attempt with a consistent view (see internal/lincheck). The
// secondaries run at DDThreshold 1, so every write commit opens a
// dependency-detection window and secondary commits happen.
//
// A commit that waits on a server stretches each transaction's real-time
// interval, and the witness search grows steeply with overlapping
// intervals: on a 2-vCPU machine under -race, one 120-transaction history
// took up to 66k search steps (6.8 s), a 60-transaction one at most 1.7k
// (50 ms). So the test checks several short histories rather than one long
// one.
func TestOpacityRTC(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	for name, opts := range variants() {
		t.Run(name, func(t *testing.T) {
			s := rtc.New(opts)
			defer s.Stop()
			for r := range rounds {
				lincheck.StressSTM(t, s, lincheck.DefaultSTMConfig(107+int64(r)).Scaled(4))
			}
		})
	}
}
