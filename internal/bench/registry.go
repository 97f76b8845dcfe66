package bench

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Experiment is one reproducible artifact of the paper's evaluation: a
// figure generator plus the ratio claims the paper makes about it.
type Experiment struct {
	ID     string
	Desc   string
	Gen    func(cfg Config) Figure
	Claims []Claim
}

// Run generates the experiment's figure against a freshly reset Default
// telemetry registry, prints it and the abort-reason breakdown recorded
// while it ran, and returns it so its claims can be checked.
func (e Experiment) Run(cfg Config, w io.Writer) Figure {
	telemetry.Default.Reset()
	f := e.Gen(cfg)
	f.Print(w)
	WriteTelemetry(w, e.ID)
	return f
}

func figExp(id, desc string, gen func(Config) Figure, claims ...Claim) Experiment {
	return Experiment{ID: id, Desc: desc, Gen: gen, Claims: claims}
}

// WriteTelemetry appends the Default registry's abort-reason table for one
// experiment, if telemetry is enabled and anything was recorded.
func WriteTelemetry(w io.Writer, id string) {
	if !telemetry.Default.Enabled() {
		return
	}
	snaps := telemetry.Default.Snapshot()
	any := false
	for _, s := range snaps {
		if s.Commits != 0 || s.TotalAborts() != 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "-- %s telemetry (per-algorithm abort breakdown) --\n", id)
	telemetry.WriteTable(w, snaps)
	fmt.Fprintln(w)
}

// Series names the claims compare.
const (
	otbName  = "OptimisticBoosted"
	pessName = "PessimisticBoosted"
)

// Experiments lists every table and figure of the evaluation sections, in
// paper order. Claims are encoded only where they clear their floor at two
// threads on a 2-vCPU host (EXPERIMENTS.md, "Paper-shape gate"); the
// Fig 3.3 read-only and Fig 3.5 claims do not and are absent on purpose.
func Experiments() []Experiment {
	const writes80 = "80pct add/remove, 20pct contains"
	return []Experiment{
		figExp("fig3.3", "linked-list set 512, Lazy vs pessimistic vs OTB", Fig33,
			// OTB ahead under contention; pessimistic slightly better write-intensive.
			Claim{Panel: "high-contention", Num: otbName, Den: pessName, Threads: 2, Floor: 1},
			Claim{Panel: "write-intensive", Num: pessName, Den: otbName, Threads: 2, Floor: 1}),
		figExp("fig3.4", "skip-list set 512, Lazy vs pessimistic vs OTB", Fig34),
		figExp("fig3.5", "skip-list set 64K, Lazy vs pessimistic vs OTB", Fig35),
		figExp("fig3.6", "heap priority queue 512, tx sizes 1 and 5", Fig36,
			// Semi-optimistic at least as fast as pessimistic; 2x at tx-size 5.
			Claim{Panel: "tx-size-1", Num: otbName, Den: pessName, Threads: 2, Floor: 1},
			Claim{Panel: "tx-size-5", Num: otbName, Den: pessName, Threads: 2, Floor: 2}),
		figExp("fig3.7", "skip-list priority queue 512, tx sizes 1 and 5", Fig37),
		figExp("fig4.2", "linked-list 512, pure STM vs OTB integration", Fig42,
			// "Up to an order of magnitude" over the pure-STM list.
			Claim{Panel: writes80, Num: "OTB-NOrec", Den: "NOrec", Threads: 2, Floor: 2},
			Claim{Panel: writes80, Num: "OTB-TL2", Den: "TL2", Threads: 2, Floor: 2}),
		figExp("fig4.3", "skip-list 4K, pure STM vs OTB integration", Fig43),
		figExp("fig4.4", "Algorithm 7 mixed set+memory transactions", Fig44),
		figExp("table5.1", "NOrec commit-time ratio on STAMP profiles", Table51),
		figExp("fig5.5", "red-black tree 64K, RingSW/NOrec/TL2/RTC", Fig55),
		figExp("fig5.6", "contention events per tx (cache-miss proxy), NOrec vs RTC", Fig56),
		figExp("fig5.7", "hash map 10K/256 buckets, RingSW/NOrec/TL2/RTC", Fig57),
		figExp("fig5.8", "doubly linked list 500, RingSW/NOrec/TL2/RTC", Fig58),
		figExp("fig5.9", "red-black tree under multiprogramming", Fig59),
		figExp("fig5.10", "STAMP execution time, RingSW/NOrec/TL2/RTC", Fig510),
		figExp("fig5.11", "RTC dependency-detector count sweep (0/1/2)", Fig511),
		figExp("fig6.2", "critical-path breakdown on red-black tree", Fig62),
		figExp("fig6.3", "critical-path breakdown on STAMP profiles", Fig63),
		figExp("fig6.7", "red-black tree 64K, invalidation family", Fig67),
		figExp("fig6.8", "STAMP execution time, invalidation family", Fig68),
		figExp("abl.validation", "ablation: OTB per-operation validation optimization", AblValidation),
		figExp("abl.locks", "ablation: OTB-NOrec semantic-lock skipping", AblLocks),
		figExp("abl.ddthreshold", "ablation: RTC dependency-detection threshold", AblDDThreshold),
		figExp("abl.fairness", "ablation: RTC contention-aware server scheduling", AblFairness),
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
