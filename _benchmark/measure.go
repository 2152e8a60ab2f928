package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"senss/internal/stats"
)

// simRecord is one finished (or failed) simulation.
type simRecord struct {
	Index   int
	Class   string
	Run     stats.Run
	Err     string        // simulation error, security halt or failed Validate
	Latency time.Duration // per-session latency as the workload defines it
}

func (r simRecord) ops() uint64 { return r.Run.Loads + r.Run.Stores + r.Run.RMWs }

// phaseResult is what one measured phase of a workload produced.
type phaseResult struct {
	Elapsed   time.Duration
	CPU       time.Duration // process CPU time (all threads) over the phase
	RefScale  float64       // the calibrator's scale over the phase
	Sims      []simRecord
	Steps     []time.Duration
	Attempted int      // operations tried: simulations, or served sessions
	Failed    int      // of which failed
	Failures  []string // why they failed
	Wrong     []string // outputs the benchmark's cross-checks found incorrect
	Mallocs   uint64
	Bytes     uint64

	Farm  *farmStats
	Serve *serveStats
	Spans []span
	Extra map[string]float64 // workload-specific end-to-end figures
}

// maxFailureNotes bounds the failure messages a report keeps.
const maxFailureNotes = 20

// fail records one failed operation.
func (r *phaseResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// collector gathers records from concurrent workers.
type collector struct {
	mu    sync.Mutex
	sims  []simRecord
	steps []time.Duration
}

func (c *collector) add(r simRecord, steps []time.Duration) {
	c.mu.Lock()
	c.sims = append(c.sims, r)
	c.steps = append(c.steps, steps...)
	c.mu.Unlock()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// runDigest hashes one stats.Run. encoding/json sorts map keys, so equal
// records always hash equal.
func runDigest(r stats.Run) string {
	b, err := json.Marshal(r)
	if err != nil {
		// stats.Run is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("benchmark: encoding stats.Run: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simDigest hashes the records with index below n, in index order. The
// prefix depends only on the seed, never on how many items a run got
// through, so parent and change can be compared. It fails when the run
// did not finish the whole prefix.
func simDigest(sims []simRecord, n int) (string, error) {
	byIdx := make(map[int]simRecord, len(sims))
	for _, s := range sims {
		byIdx[s.Index] = s
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		s, ok := byIdx[i]
		if !ok {
			return "", fmt.Errorf("simulation %d of the %d-item digest prefix did not finish", i, n)
		}
		fmt.Fprintf(h, "%d %s %s\n", i, runDigest(s.Run), s.Err)
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// simCounters are the modelled components' figures over a phase's
// successful simulations.
func simCounters(sims []simRecord) map[string]float64 {
	var ops, cyc, bus, c2c, arb, l1h, l1m, l2h, l2m, auth, mask, padH, padM, hf float64
	for _, s := range sims {
		if s.Err != "" {
			continue
		}
		r := s.Run
		ops += float64(s.ops())
		cyc += float64(r.Cycles)
		bus += float64(r.BusTotal)
		c2c += float64(r.C2C)
		arb += float64(r.ArbWaitCyc)
		l1h += float64(r.L1DHits)
		l1m += float64(r.L1DMisses)
		l2h += float64(r.L2Hits)
		l2m += float64(r.L2Misses)
		auth += float64(r.AuthMsgs)
		mask += float64(r.MaskStalls)
		padH += float64(r.PadHits)
		padM += float64(r.PadMisses)
		hf += float64(r.HashFetches)
	}
	kop := ops / 1000
	return map[string]float64{
		"sim.cycles_per_op":              ratio(cyc, ops),
		"bus.txn_per_kop":                ratio(bus, kop),
		"bus.c2c_per_kop":                ratio(c2c, kop),
		"bus.arb_wait_cyc_per_kop":       ratio(arb, kop),
		"cache.l1d_miss_ratio":           ratio(l1m, l1h+l1m),
		"cache.l2_miss_ratio":            ratio(l2m, l2h+l2m),
		"core.auth_msgs_per_kop":         ratio(auth, kop),
		"core.mask_stall_cyc_per_kop":    ratio(mask, kop),
		"memsec.pad_miss_ratio":          ratio(padM, padH+padM),
		"integrity.hash_fetches_per_kop": ratio(hf, kop),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simOps sums the memory operations of a phase's successful simulations.
func simOps(sims []simRecord) float64 {
	var ops float64
	for _, s := range sims {
		if s.Err == "" {
			ops += float64(s.ops())
		}
	}
	return ops
}

// cpuTime is the process's user plus system CPU time so far, over all
// its threads. The kernel leaves out time the hypervisor gave to other
// guests (steal), which wall time on a shared host includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
