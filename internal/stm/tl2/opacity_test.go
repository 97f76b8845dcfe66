package tl2_test

import (
	"testing"

	"repro/internal/lincheck"
	"repro/internal/stm/tl2"
)

// TestOpacityTL2 records a contended transactional workload and checks
// that some commit order of the committed transactions explains every read,
// respects real-time order, and leaves each aborted attempt with a
// consistent view (see internal/lincheck).
func TestOpacityTL2(t *testing.T) {
	s := tl2.New()
	defer s.Stop()
	cfg := lincheck.DefaultSTMConfig(102)
	if testing.Short() {
		cfg = cfg.Scaled(2)
	}
	lincheck.StressSTM(t, s, cfg)
}
