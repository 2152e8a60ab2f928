package farm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"senss/internal/machine"
	"senss/internal/sim"
	"senss/internal/stats"
	"senss/internal/workload"
)

// testJob builds a distinct job by varying the machine seed.
func testJob(seed uint64) Job {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	return Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg, Figure: "test"}
}

// countingRunner returns a fake runner that tallies executions per job
// hash and synthesizes a deterministic Run from the seed.
func countingRunner(calls *sync.Map) RunFunc {
	return func(j Job) (stats.Run, error) {
		c, _ := calls.LoadOrStore(j.Hash(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return stats.Run{Workload: j.Workload, Cycles: j.Config.Seed * 1000}, nil
	}
}

func callCount(calls *sync.Map, hash string) int64 {
	c, ok := calls.Load(hash)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

func TestHashStableAndDiscriminating(t *testing.T) {
	a, b := testJob(1), testJob(1)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal jobs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 32 {
		t.Fatalf("hash length = %d, want 32", len(a.Hash()))
	}
	c := testJob(2)
	if a.Hash() == c.Hash() {
		t.Fatal("distinct seeds collide")
	}
	d := a
	d.Figure = "other"
	if a.Hash() != d.Hash() {
		t.Fatal("figure tag must not enter the hash (it is provenance only)")
	}
	e := a
	e.Config.Security.Mode = machine.SecurityBus
	if a.Hash() == e.Hash() {
		t.Fatal("security mode must enter the hash")
	}
}

func TestRunDedupesAndCaches(t *testing.T) {
	f := NewMem(4)
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))

	jobs := []Job{testJob(1), testJob(2), testJob(1), testJob(2), testJob(1)}
	results, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (deduplicated)", len(results))
	}
	for _, j := range []Job{testJob(1), testJob(2)} {
		if n := callCount(&calls, j.Hash()); n != 1 {
			t.Errorf("job %s simulated %d times, want exactly 1", j, n)
		}
	}

	// A second fleet over the same configs is served from cache.
	results2, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for h, r := range results2 {
		if !r.Cached {
			t.Errorf("second run of %s not served from cache", h)
		}
		if r.Run.Cycles != results[h].Run.Cycles {
			t.Errorf("cached result diverged for %s", h)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	f := NewMem(2)
	var firstAttempt sync.Map
	flaky := testJob(7)
	f.SetRunner(func(j Job) (stats.Run, error) {
		if j.Hash() == flaky.Hash() {
			if _, loaded := firstAttempt.LoadOrStore(j.Hash(), true); !loaded {
				panic("transient explosion")
			}
		}
		return stats.Run{Cycles: 42}, nil
	})
	results, err := f.Run([]Job{flaky, testJob(8)})
	if err != nil {
		t.Fatalf("retry should have recovered the panicking job: %v", err)
	}
	res := results[flaky.Hash()]
	if res.Attempts != 2 {
		t.Errorf("flaky job attempts = %d, want 2", res.Attempts)
	}
	if res.Run.Cycles != 42 {
		t.Errorf("flaky job result = %d, want 42", res.Run.Cycles)
	}
}

func TestPersistentFailureConfined(t *testing.T) {
	f := NewMem(2)
	bad := testJob(9)
	f.SetRunner(func(j Job) (stats.Run, error) {
		if j.Hash() == bad.Hash() {
			panic("deterministic explosion")
		}
		return stats.Run{Cycles: 1}, nil
	})
	results, err := f.Run([]Job{bad, testJob(10), testJob(11)})
	if err == nil {
		t.Fatal("want aggregate error for the failing job")
	}
	if !strings.Contains(err.Error(), "1 of 3 jobs failed") {
		t.Errorf("aggregate error = %q", err)
	}
	if !strings.Contains(results[bad.Hash()].Err, "panicked") {
		t.Errorf("failure not recorded as panic: %q", results[bad.Hash()].Err)
	}
	for _, good := range []Job{testJob(10), testJob(11)} {
		if results[good.Hash()].Err != "" {
			t.Errorf("healthy job %s infected by neighbour's panic", good)
		}
	}
}

// TestSimulationPanicConfined pins isolation for a panic raised inside a
// simulated processor rather than in the runner itself: the proc's panic
// reaches exec's recover on the worker's goroutine, the job ends as
// Result.Err, and the jobs queued behind it on the same worker still run.
func TestSimulationPanicConfined(t *testing.T) {
	f := NewMem(1)
	bad := testJob(12)
	f.SetRunner(func(j Job) (stats.Run, error) {
		e := sim.NewEngine()
		defer e.Abort()
		e.Spawn("cpu0", func(p *sim.Proc) {
			p.Sleep(10)
			if j.Hash() == bad.Hash() {
				panic("simulated fault")
			}
		})
		e.Spawn("cpu1", func(p *sim.Proc) { p.Sleep(20) })
		err := e.Run()
		return stats.Run{Cycles: e.Now()}, err
	})
	jobs := []Job{bad, testJob(13), testJob(14)}
	results, err := f.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 jobs failed") {
		t.Errorf("aggregate error = %v, want one failed job", err)
	}
	if !strings.Contains(results[bad.Hash()].Err, "simulated fault") {
		t.Errorf("bad job error = %q, want the proc's panic", results[bad.Hash()].Err)
	}
	for _, good := range jobs[1:] {
		if res := results[good.Hash()]; res.Err != "" || res.Run.Cycles != 20 {
			t.Errorf("job %s after the panic: %+v", good, res)
		}
	}
}

func TestErrorRetrySkippedWhenDisabled(t *testing.T) {
	f, err := New(Options{Workers: 1, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.Map
	f.SetRunner(func(j Job) (stats.Run, error) {
		c, _ := calls.LoadOrStore(j.Hash(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return stats.Run{}, fmt.Errorf("boom")
	})
	j := testJob(3)
	if _, err := f.Run([]Job{j}); err == nil {
		t.Fatal("want error")
	}
	if n := callCount(&calls, j.Hash()); n != 1 {
		t.Fatalf("Retries:-1 ran job %d times, want 1", n)
	}
}

func TestGetComputesOnceThenHits(t *testing.T) {
	f := NewMem(1)
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))
	j := testJob(5)
	for i := 0; i < 3; i++ {
		run, err := f.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if run.Cycles != 5000 {
			t.Fatalf("Get result = %d, want 5000", run.Cycles)
		}
	}
	if n := callCount(&calls, j.Hash()); n != 1 {
		t.Fatalf("Get simulated %d times, want 1", n)
	}
}

func TestRunSweepManifestAndResume(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))

	jobs := []Job{testJob(1), testJob(2), testJob(3)}
	m, results, err := f.RunSweep("resume-test", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(m.Jobs) != 3 {
		t.Fatalf("results=%d manifest=%d, want 3", len(results), len(m.Jobs))
	}
	if done, failed, pending := m.Counts(); done != 3 || failed != 0 || pending != 0 {
		t.Fatalf("counts = %d/%d/%d, want 3/0/0", done, failed, pending)
	}

	// A fresh farm over the same directory resumes: nothing re-simulates.
	f2, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls2 sync.Map
	f2.SetRunner(countingRunner(&calls2))
	m2, results2, err := f2.RunSweep("resume-test", jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if n := callCount(&calls2, j.Hash()); n != 0 {
			t.Errorf("resumed sweep re-simulated %s %d times", j, n)
		}
		if !results2[j.Hash()].Cached {
			t.Errorf("resumed job %s not marked cached", j)
		}
	}

	// Manifests from the cold and resumed runs are byte-identical.
	b1, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("cold and resumed manifests differ:\n%s\nvs\n%s", b1, b2)
	}

	// The on-disk manifest round-trips.
	loaded, err := LoadManifest(dir, "resume-test")
	if err != nil || loaded == nil {
		t.Fatalf("LoadManifest: %v, %v", loaded, err)
	}
	if len(loaded.Jobs) != 3 {
		t.Fatalf("loaded manifest has %d jobs", len(loaded.Jobs))
	}
}

func TestManifestIdenticalAcrossWorkerCounts(t *testing.T) {
	jobs := make([]Job, 0, 12)
	for seed := uint64(1); seed <= 12; seed++ {
		jobs = append(jobs, testJob(seed))
	}
	var encodings []string
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		f, err := New(Options{Workers: workers, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var calls sync.Map
		f.SetRunner(countingRunner(&calls))
		m, _, err := f.RunSweep("det", jobs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encodings = append(encodings, string(b))
	}
	if encodings[0] != encodings[1] {
		t.Errorf("manifests differ between workers=1 and workers=8:\n%s\nvs\n%s",
			encodings[0], encodings[1])
	}
}

// TestDefaultRunnerRealSimulation exercises the driver-backed default
// runner end to end on one small real job.
func TestDefaultRunnerRealSimulation(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 2
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 16 << 10
	cfg.CPU.CodeBytes = 2 << 10
	f := NewMem(1)
	run, err := f.Get(Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 || run.BusTotal == 0 {
		t.Fatalf("implausible run: %+v", run)
	}
}
