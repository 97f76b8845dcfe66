package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"path"
	"sort"

	"repro/internal/txnet"
)

// Structure indexes of txnet.NewOTBStore.
const (
	structSet uint32 = 0
	structMap uint32 = 1
	structPQ  uint32 = 2
)

// multiOps is the fixed transaction size of the "multi" shape: a read
// transaction is 4 keys × {Contains, Get}; a write transaction is 2 keys ×
// {set op, map op} + PQ Add + PQ RemoveMin + one key × {Contains, Get}.
const multiOps = 8

// preloadBatch is the transaction size used to load the initial state.
const preloadBatch = 64

// inBatches hands ops to fn in preloadBatch-op transactions, stopping at the
// first error.
func inBatches(ops []txnet.Op, fn func(batch []txnet.Op) error) error {
	for len(ops) > 0 {
		batch := ops[:min(preloadBatch, len(ops))]
		ops = ops[len(batch):]
		if err := fn(batch); err != nil {
			return err
		}
	}
	return nil
}

//go:embed workloads/*.json
var workloadFS embed.FS

// Spec is one declarative workload (workloads/<name>.json). Everything the
// generator does follows from these fields and the seed.
type Spec struct {
	Name    string `json:"name"`
	Purpose string `json:"purpose"`
	// Transport is "loopback" (txnet.Listen + txnet.Dial on 127.0.0.1) or
	// "inproc" (goroutines call Store.Exec directly).
	Transport string `json:"transport"`
	Store     string `json:"store"`
	// Fsync is empty for an in-memory store, else the WAL policy of a
	// durable one ("always", "interval", "never").
	Fsync string `json:"fsync"`
	// SnapshotEvery is the durable store's snapshot cadence in logged
	// commits (0 = txnet.DefaultSnapshotEvery).
	SnapshotEvery int `json:"snapshot_every"`
	Conns         int `json:"conns"`
	// CPUs is how many CPUs the process is confined to while the workload
	// runs (see confine): 1 for the wire workloads, whose requests are chains
	// of hand-offs, 2 where two goroutines must really run at once.
	CPUs int `json:"cpus"`
	// WarmupS is how many seconds of the workload's own stream run before
	// the measured window: 1 where nothing ages, 7 for the linked list,
	// whose traversal slows by a tenth over its first seconds of churn and
	// then stays (see preloadOps). The best slice of a window that began
	// earlier would always be its first, whatever the host did.
	WarmupS int `json:"warmup_s"`
	// Shape is "point" (OpsPerTx independent ops on Struct, keys owned by
	// one connection) or "multi" (8-op set+map+PQ transactions over keys
	// every connection shares).
	Shape     string  `json:"shape"`
	Struct    uint32  `json:"struct"`
	OpsPerTx  int     `json:"ops_per_tx"`
	KeyRange  int64   `json:"key_range"`
	Preload   int64   `json:"preload"`
	PQPreload int     `json:"pq_preload"`
	ZipfS     float64 `json:"zipf_s"` // 0 = uniform
	// Mix is in percent. Point: the share of each op. Multi: Read is the
	// share of read transactions; Insert:Remove splits the key pairs of
	// write transactions.
	Mix struct {
		Read   int `json:"read"`
		Insert int `json:"insert"`
		Remove int `json:"remove"`
	} `json:"mix"`
}

func (s *Spec) validate() error {
	switch {
	case s.Name == "" || s.Purpose == "":
		return fmt.Errorf("name and purpose are required")
	case s.Transport != "loopback" && s.Transport != "inproc":
		return fmt.Errorf("transport %q", s.Transport)
	case s.Store != "otb":
		return fmt.Errorf("store %q (only otb can be dumped and made durable)", s.Store)
	case s.Fsync != "" && s.Transport != "loopback":
		return fmt.Errorf("a durable store is only reachable through a server")
	case s.Conns < 1 || s.KeyRange < int64(s.Conns) || s.Preload > s.KeyRange:
		return fmt.Errorf("conns %d, key_range %d, preload %d", s.Conns, s.KeyRange, s.Preload)
	case s.WarmupS < 1:
		return fmt.Errorf("warmup_s %d", s.WarmupS)
	case s.CPUs < 1 || s.CPUs > s.Conns:
		return fmt.Errorf("cpus %d with %d conns: a workload never gets more CPUs than it has callers", s.CPUs, s.Conns)
	case s.Mix.Read+s.Mix.Insert+s.Mix.Remove != 100 || s.Mix.Insert+s.Mix.Remove == 0:
		return fmt.Errorf("mix must sum to 100 and mutate sometimes")
	case s.Shape == "point" && (s.OpsPerTx < 1 || s.Struct > structMap || s.ZipfS != 0):
		return fmt.Errorf("point shape: ops_per_tx %d, struct %d, zipf_s %g", s.OpsPerTx, s.Struct, s.ZipfS)
	case s.Shape == "multi" && (s.OpsPerTx != multiOps || s.ZipfS <= 1 || s.PQPreload < 1):
		return fmt.Errorf("multi shape: ops_per_tx %d (want %d), zipf_s %g (want > 1), pq_preload %d",
			s.OpsPerTx, multiOps, s.ZipfS, s.PQPreload)
	case s.Shape != "point" && s.Shape != "multi":
		return fmt.Errorf("shape %q", s.Shape)
	}
	return nil
}

// loadSpecs reads every embedded workload, ordered by name.
func loadSpecs() ([]*Spec, error) {
	entries, err := workloadFS.ReadDir("workloads")
	if err != nil {
		return nil, err
	}
	var specs []*Spec
	for _, e := range entries {
		raw, err := workloadFS.ReadFile(path.Join("workloads", e.Name()))
		if err != nil {
			return nil, err
		}
		s := new(Spec)
		if err := json.Unmarshal(raw, s); err != nil {
			return nil, fmt.Errorf("workloads/%s: %w", e.Name(), err)
		}
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("workloads/%s: %w", e.Name(), err)
		}
		if s.Name+".json" != e.Name() {
			return nil, fmt.Errorf("workloads/%s declares name %q", e.Name(), s.Name)
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// mapVal is the value every map entry of a multi workload carries, so a Get
// can be checked without knowing who wrote last.
func mapVal(key int64) uint64 { return uint64(key)*0x9E3779B97F4A7C15 | 1 }

// pqKey builds a priority-queue key that is unique (low 33 bits) and lands
// at a random priority (high 30 bits).
func pqKey(prio, uniq uint64) int64 {
	return int64(prio&(1<<30-1)<<33 | uniq&(1<<33-1))
}

// generator produces one connection's transaction stream. It is a pure
// function of (seed, workload name, conn): the program under test sees only
// the ops.
type generator struct {
	spec  *Spec
	conn  int
	rng   *rand.Rand
	zipf  *rand.Zipf
	pqCtr uint64
}

func newGenerator(spec *Spec, seed uint64, conn int) *generator {
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	g := &generator{
		spec:  spec,
		conn:  conn,
		rng:   rand.New(rand.NewPCG(seed, h.Sum64()+uint64(conn))),
		pqCtr: uint64(spec.PQPreload),
	}
	if spec.ZipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(spec.KeyRange-1))
	}
	return g
}

// next appends one transaction to ops[:0] and reports whether it mutates.
func (g *generator) next(ops []txnet.Op) ([]txnet.Op, bool) {
	ops = ops[:0]
	s := g.spec
	if s.Shape == "point" {
		write := false
		for i := 0; i < s.OpsPerTx; i++ {
			// Connection i owns the keys congruent to i, so its model of
			// them is exact.
			key := int64(g.conn) + int64(s.Conns)*g.rng.Int64N(s.KeyRange/int64(s.Conns))
			op := txnet.Op{Struct: s.Struct, Key: key}
			r := g.rng.IntN(100)
			switch {
			case r < s.Mix.Read:
				op.Code = [...]txnet.OpCode{txnet.OpContains, txnet.OpGet}[s.Struct]
			case r < s.Mix.Read+s.Mix.Insert:
				op.Code = [...]txnet.OpCode{txnet.OpAdd, txnet.OpPut}[s.Struct]
				if s.Struct == structMap {
					op.Val = g.rng.Uint64()
				}
				write = true
			default:
				op.Code = [...]txnet.OpCode{txnet.OpRemove, txnet.OpDelete}[s.Struct]
				write = true
			}
			ops = append(ops, op)
		}
		return ops, write
	}
	readPair := func() {
		k := int64(g.zipf.Uint64())
		ops = append(ops,
			txnet.Op{Code: txnet.OpContains, Struct: structSet, Key: k},
			txnet.Op{Code: txnet.OpGet, Struct: structMap, Key: k})
	}
	if g.rng.IntN(100) < s.Mix.Read {
		for i := 0; i < multiOps/2; i++ {
			readPair()
		}
		return ops, false
	}
	for i := 0; i < 2; i++ {
		k := int64(g.zipf.Uint64())
		if g.rng.IntN(s.Mix.Insert+s.Mix.Remove) < s.Mix.Insert {
			ops = append(ops,
				txnet.Op{Code: txnet.OpAdd, Struct: structSet, Key: k},
				txnet.Op{Code: txnet.OpPut, Struct: structMap, Key: k, Val: mapVal(k)})
		} else {
			ops = append(ops,
				txnet.Op{Code: txnet.OpRemove, Struct: structSet, Key: k},
				txnet.Op{Code: txnet.OpDelete, Struct: structMap, Key: k})
		}
	}
	g.pqCtr++
	ops = append(ops,
		txnet.Op{Code: txnet.OpAdd, Struct: structPQ,
			Key: pqKey(g.rng.Uint64(), g.pqCtr*uint64(s.Conns)+uint64(g.conn))},
		txnet.Op{Code: txnet.OpRemoveMin, Struct: structPQ})
	readPair()
	return ops, true
}

// preloadOps returns the ops that build connection conn's share of the
// initial state: exactly Preload/Conns of the keys it owns for a point
// workload, in random order; for a multi workload connection 0 loads everything (Preload hot
// keys into set and map, PQPreload queue entries) and the others nothing.
func preloadOps(spec *Spec, seed uint64, conn int) []txnet.Op {
	g := newGenerator(spec, seed^0x5eed, conn)
	var ops []txnet.Op
	// Selection sampling: walk the candidates in order and keep each with
	// probability (still wanted)/(still to see), which keeps exactly want.
	pick := func(n, want int64, emit func(i int64)) {
		for i := int64(0); i < n && want > 0; i++ {
			if g.rng.Int64N(n-i) < want {
				emit(i)
				want--
			}
		}
	}
	if spec.Shape == "point" {
		conns := int64(spec.Conns)
		pick(spec.KeyRange/conns, spec.Preload/conns, func(i int64) {
			op := txnet.Op{Struct: spec.Struct, Key: int64(conn) + conns*i}
			if spec.Struct == structSet {
				op.Code = txnet.OpAdd
			} else {
				op.Code, op.Val = txnet.OpPut, g.rng.Uint64()
			}
			ops = append(ops, op)
		})
		// In random order, not ascending: a linked list built in key order
		// has its nodes laid out in memory in traversal order, which no store
		// that has served updates still has. Loaded in key order
		// net-set-point's first 2 s slice read p50 37.5 µs and the slices
		// after ten seconds of churn 41.5-42; loaded in random order the
		// first reads 38.4-40.3 and the level is reached after six seconds.
		// The rest of the climb is the heap (replaced nodes are allocated
		// among the requests' garbage, so the list spreads over more cache
		// lines); the workload's warm-up (warmup_s) covers it.
		g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
	if conn != 0 {
		return nil
	}
	pick(spec.KeyRange, spec.Preload, func(k int64) {
		ops = append(ops,
			txnet.Op{Code: txnet.OpAdd, Struct: structSet, Key: k},
			txnet.Op{Code: txnet.OpPut, Struct: structMap, Key: k, Val: mapVal(k)})
	})
	for i := 0; i < spec.PQPreload; i++ {
		ops = append(ops, txnet.Op{Code: txnet.OpAdd, Struct: structPQ, Key: pqKey(g.rng.Uint64(), uint64(i))})
	}
	return ops
}
