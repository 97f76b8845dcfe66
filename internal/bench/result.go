package bench

import (
	"encoding/json"
	"os"
)

// ResultSchema is the machine-readable result schema of cmd/stmbench -json
// and the recovery-timing suite (documented in EXPERIMENTS.md,
// "Machine-readable results").
const ResultSchema = "stmbench-result/v1"

// Result is one stmbench-result/v1 record: one (structure, algorithm,
// threads, workload) measurement. cmd/stmbench extends it with telemetry
// meters.
type Result struct {
	Schema      string  `json:"schema"`
	Structure   string  `json:"structure"`
	Algorithm   string  `json:"algorithm"`
	Threads     int     `json:"threads"`
	InitialSize int     `json:"initial_size"`
	WritePct    int     `json:"write_pct"`
	OpsPerTx    int     `json:"ops_per_tx"`
	DurationNS  int64   `json:"duration_ns"`
	TxPerSec    float64 `json:"tx_per_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`

	AllocsPerTx     float64 `json:"allocs_per_tx"`
	AllocBytesPerTx float64 `json:"alloc_bytes_per_tx"`
	GCPauseTotalNS  uint64  `json:"gc_pause_total_ns"`
	NumGC           uint32  `json:"num_gc"`

	// RecoveryMS is the wall-clock cost of durable-store recovery
	// (snapshot load + log-tail replay), emitted by the recovery-timing
	// suite in internal/txnet; zero (omitted) for throughput records.
	RecoveryMS float64 `json:"recovery_ms,omitempty"`
}

// WriteResults writes records as an indented JSON array.
func WriteResults(path string, results []Result) error {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
