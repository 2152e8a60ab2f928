package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"senss/internal/serve"
	"senss/internal/stats"
	"senss/internal/workload"
)

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func unitsByName(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// TestMetricListsMatchBenchmarkJSON pins the metric names and units the
// program prints, and its workloads, to BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range c.file {
			want[d.Name] = d.Unit
		}
		if got := unitsByName(c.code); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: program prints %v, BENCHMARK.json lists %v", c.what, got, want)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: program has %v, BENCHMARK.json lists %v", workloadNames, names)
	}
}

// lastLine runs the command and decodes the result line.
func lastLine(t *testing.T, args ...string) map[string]any {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--out", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPrintedMetricsMatchBenchmarkJSON runs up-base briefly, untraced and
// traced, and checks the result line carries exactly the listed metrics
// with their units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		res := lastLine(t, "--workload", "up-base", "--seed", "3", "--seconds", "0.4", "--trace", trace)
		if len(res) != 4 || res["correct"] != true {
			t.Errorf("trace %s: result keys/correct: %v", trace, res)
		}
		metrics, _ := res["metrics"].(map[string]any)
		got := map[string]string{}
		for name, v := range metrics {
			m, _ := v.(map[string]any)
			got[name], _ = m["unit"].(string)
		}
		if want := unitsByName(defs); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: printed %v, want %v", trace, got, want)
		}
	}
}

func TestArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "up-base"},             // no seed
		{"--workload", "nope", "--seed", "1"}, // unknown workload
		{"--workload", "up-base", "--seed", "1", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}

// TestGenerationIsDeterministic checks that every workload's inputs
// depend on the seed alone.
func TestGenerationIsDeterministic(t *testing.T) {
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := figJobs()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed uint64) any{
		"smp":   func(seed uint64) any { return smpRound(seed, 0, 4, 3) },
		"fig":   func(seed uint64) any { return seedJobs(jobs, seed, 0, 2) },
		"serve": func(seed uint64) any { return servePlan(seed, 0, p.ServeMix, 100) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: two seeds gave the same inputs", name)
		}
	}
}

// TestServePlanIsBalanced checks that seeds only reorder serve-mix: a
// whole period holds the same specs (up to machine seed and tenant),
// repeats half of them and leaves out no program but the left-out ones.
func TestServePlanIsBalanced(t *testing.T) {
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	n := p.ServeMix.periodLen()
	names := map[string]bool{}
	for _, s := range servePlan(1, 0, p.ServeMix, n) {
		names[s.Spec.Workload] = true
	}
	for _, name := range workload.AllNames() {
		if names[name] == leftOut[name] {
			t.Errorf("%s: in the plan %v, left out %v", name, names[name], leftOut[name])
		}
	}
	mix := func(seed uint64) map[serve.SessionSpec]int {
		m := map[serve.SessionSpec]int{}
		repeats := 0
		for _, s := range servePlan(seed, 0, p.ServeMix, n) {
			if s.RepeatOf >= 0 {
				repeats++
			}
			s.Spec.Seed, s.Spec.Tenant = 0, ""
			m[s.Spec]++
		}
		if repeats*2 != n {
			t.Errorf("seed %d: %d repeats in %d sessions, want half", seed, repeats, n)
		}
		return m
	}
	if a, b := mix(1), mix(2); !reflect.DeepEqual(a, b) {
		t.Errorf("two seeds drew different spec mixes:\n%v\n%v", a, b)
	}
}

// TestDigestRepeatsForOneSeed runs up-base twice on one seed and once on
// another.
func TestDigestRepeatsForOneSeed(t *testing.T) {
	digest := func(seed uint64) string {
		b, err := newSMPBench(seed, 1, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.phase(0, 100*time.Millisecond, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := simDigest(res.Sims, b.digestItems())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("one seed, two digests: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("two seeds, one digest %s", a)
	}
}

// TestHostSharesSumToOne profiles a short simulation and checks the
// buckets cover all of its CPU time.
func TestHostSharesSumToOne(t *testing.T) {
	b, err := newSMPBench(1, 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	_, err = b.phase(0, 500*time.Millisecond, nil, nil)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	self, err := selfTimeByFunc(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := hostShares(self)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) != len(hostBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d buckets summing to %v, want %d summing to 1", len(shares), sum, len(hostBuckets))
	}
	if shares["host_share.sim"]+shares["host_share.cache"]+shares["host_share.cpu"] == 0 {
		t.Errorf("no time in the simulator's packages: %v", shares)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"senss/internal/sim.(*Proc).Sleep":                "sim",
		"senss/internal/crypto/aes.(*Cipher).Encrypt":     "crypto",
		"crypto/aes.encryptBlockAsm":                      "crypto",
		"senss/internal/machine.(*Machine).Step":          "other",
		"runtime.chanrecv":                                "runtime_sched",
		"runtime.mallocgc":                                "runtime_gc",
		"runtime.scanobject":                              "runtime_gc",
		"encoding/json.(*decodeState).object":             "net_http_json",
		"net/http.(*conn).serve":                          "net_http_json",
		"internal/runtime/syscall.Syscall6":               "runtime_sched",
		"senss/internal/serve.(*Server).handleStep.func1": "serve",
		"main.main": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "step", Parent: 0, Start: 10, End: 40},
		{Name: "step", Parent: 0, Start: 30, End: 50},
		{Name: "close", Parent: 0, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 50e-6, "step": 50e-6, "close": 30e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}

// fakeServe answers the serve API with one-step sessions and lets a test
// stall a chosen request.
type fakeServe struct {
	mu    sync.Mutex
	n     int
	stall func(r *http.Request) time.Duration
}

func (f *fakeServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := f.stall(r); d > 0 {
		time.Sleep(d)
	}
	route, id := routeOf(r)
	w.Header().Set("Content-Type", "application/json")
	switch route {
	case "create":
		f.mu.Lock()
		f.n++
		id = fmt.Sprintf("s%d", f.n)
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(serve.SessionInfo{ID: id})
	case "step":
		_ = json.NewEncoder(w).Encode(serve.StepResponse{ID: id, Done: true})
	case "delete":
		_ = json.NewEncoder(w).Encode(serve.StatsResponse{ID: id, Done: true, Stats: stats.Run{Workload: "fake", Cycles: 1}})
	default:
		http.NotFound(w, r)
	}
}

// TestOpenLoopChargesStall stalls one request on a single connection: the
// sessions that fall due during the stall must have it in their latency,
// measured from their due time, while the generator itself stays on time.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	fs := &fakeServe{stall: func(r *http.Request) time.Duration {
		d := time.Duration(0)
		if route, _ := routeOf(r); route == "step" {
			once.Do(func() { d = stall })
		}
		return d
	}}
	srv := httptest.NewServer(fs)
	defer srv.Close()
	g := newLoadgen(srv.URL, 1, 1000, 5*time.Second)
	defer g.close()
	var plan []plannedSession
	for i := 0; i < 6; i++ {
		plan = append(plan, plannedSession{Index: i, Due: time.Duration(i) * 20 * time.Millisecond, RepeatOf: -1})
	}
	outs, lags := g.run(plan)
	for i, o := range outs {
		if !o.OK {
			t.Fatalf("session %d failed: %s", i, o.Failure)
		}
		if lags[i] > 50*time.Millisecond {
			t.Errorf("session %d: generator %v late", i, lags[i])
		}
		if i == 0 {
			continue
		}
		// Session i fell due 20i ms after start, while the stall holds the
		// only connection until ~300 ms.
		if lat, floor := o.Done-o.Due, stall-plan[i].Due-20*time.Millisecond; lat < floor {
			t.Errorf("session %d: latency %v from due time, want at least %v", i, lat, floor)
		}
	}
}

// TestCalibratorScale checks that reference slices give a positive scale
// and that their time is counted, and that no samples mean no rescaling.
func TestCalibratorScale(t *testing.T) {
	var none *calibrator
	if s := none.scale(); s != 1 {
		t.Errorf("nil calibrator scale %v, want 1", s)
	}
	c := newCalibrator(1e5)
	c.reset()
	if s := c.scale(); s != 1 {
		t.Errorf("scale without samples %v, want 1", s)
	}
	c.slices(3)
	if cpu, wall := c.spent(); cpu <= 0 || wall <= 0 || len(c.chunkNS) != 3 {
		t.Errorf("3 slices: cpu %v wall %v samples %d", cpu, wall, len(c.chunkNS))
	}
	if s := c.scale(); !(s > 0) {
		t.Errorf("scale %v, want positive", s)
	}
}
