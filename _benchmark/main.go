// Command senss-benchmark is the repository's benchmark: one command
// that runs a named workload from a seed, checks that the simulations'
// outputs are correct, and prints every metric by name with its unit.
// Run it from the repository root:
//
//	bash _benchmark/run.sh --workload smp-base --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json and params.json for why each exists):
//
//	figsweep   the Figure 6-10 sweep at test size, cold, on an in-memory farm
//	smp-base   the paper programs at bench size, 4 procs, security off
//	up-base    the same at 1 proc
//	serve-mix  an open loop of served sessions over HTTP
//
// No workload runs barnes, whose own check rejects some random inputs
// (see leftOut).
//
// --trace 0 measures and prints the end-to-end metrics. --trace 1 runs
// half the time untraced and half traced (spans at every call the
// benchmark makes into a layer, plus a CPU profile), then microtimings,
// and prints the per-layer metrics. The line before the result holds
// the full report: provenance, sim_digest, every metric of the run, and
// sample counts. Spans, the profile and the report are also written to
// --out.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

var workloadNames = []string{"figsweep", "smp-base", "up-base", "serve-mix"}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("senss-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 0, "seed all inputs derive from (required; params.json names the default and the held-back seed)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for the report, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case !seedSet:
		return o, errors.New("--seed is required")
	case o.seconds <= 0:
		return o, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	for _, w := range workloadNames {
		if w == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "senss-benchmark:", err)
		return 2
	}
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(stderr, "senss-benchmark:", err)
		return 1
	}
	for _, msg := range rep.Failures {
		fmt.Fprintln(stderr, "senss-benchmark: failed:", msg)
	}
	for _, msg := range rep.Wrong {
		fmt.Fprintln(stderr, "senss-benchmark: incorrect:", msg)
	}
	full, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintln(stderr, "senss-benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(o.out, rep.fileStem()+".report.json"), full, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "senss-benchmark: writing report:", err)
		}
	}
	last, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "senss-benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return 0
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Wrong      []string           `json:"wrong,omitempty"`
	Digest     string             `json:"sim_digest"`
	DigestN    int                `json:"sim_digest_items"`
	Metrics    map[string]metric  `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	SelfMS     map[string]float64 `json:"span_self_ms,omitempty"`
	SetupRuns  []float64          `json:"setup_runs_s"`
}

func (r *report) fileStem() string {
	return fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, b2i(r.Trace))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result is the last line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *report) result() map[string]any {
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	ms := make(map[string]metric, len(names))
	for _, d := range names {
		ms[d.Name] = r.Metrics[d.Name]
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// setUp builds the workload's bench.
func setUp(o options, p params) (bench, error) {
	workers := runtime.NumCPU()
	if o.workload == "serve-mix" {
		return newServeBench(o.seed, p.ServeMix, workers)
	}
	step, err := p.batchStep(o.workload)
	if err != nil {
		return nil, err
	}
	switch o.workload {
	case "figsweep":
		return newFigBench(o.seed, p.Figsweep.Workers, step)
	case "smp-base":
		return newSMPBench(o.seed, 4, step)
	}
	return newSMPBench(o.seed, 1, step)
}

func execute(o options) (*report, error) {
	p, err := loadParams()
	if err != nil {
		return nil, err
	}
	limit, err := p.memoryLimit(o.workload)
	if err != nil {
		return nil, err
	}
	debug.SetMemoryLimit(limit)
	cal := newCalibrator(p.Reference.ChunkNS)
	rep := &report{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Metrics: map[string]metric{}, Samples: map[string]int{}}

	// Set up several times and keep the last bench; setup_s is the median.
	var b bench
	for i := 0; i < p.SetupRepeats.Value; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		b, err = setUp(o, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
	}
	defer b.close()

	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		res, err := measure(b, 0, dur, nil, cal)
		if err != nil {
			return nil, err
		}
		rep.addEndToEnd(res)
		rep.check(res, b.digestItems())
	} else {
		plain, err := measure(b, 0, dur/2, nil, cal)
		if err != nil {
			return nil, err
		}
		rep.addEndToEnd(plain)
		rep.check(plain, b.digestItems())
		untraced := map[string]float64{"sim_ops_per_s": rep.Metrics["sim_ops_per_s"].Value, "step_p50_ms": rep.Metrics["step_p50_ms"].Value}

		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := measure(b, 1, dur/2, tr, cal)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if sb, ok := b.(*serveBench); ok {
			sb.replay(traced, tr)
			traced.Spans = tr.snapshot()
		}
		micro, err := microtimings(tr)
		if err != nil {
			return nil, err
		}
		rep.addPerLayer(plain, traced, micro, untraced)
		rep.Attempted += traced.Attempted
		rep.Failed += traced.Failed
		rep.Failures = append(rep.Failures, traced.Failures...)
		rep.Wrong = append(rep.Wrong, traced.Wrong...)
		if err := rep.addHostShares(prof.Bytes()); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		rep.SelfMS = selfTimes(spans)
		stem := filepath.Join(o.out, rep.fileStem())
		if err := writeSpans(stem+".spans.jsonl", spans); err != nil {
			return nil, err
		}
		if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	rep.Correct = len(rep.Wrong) == 0
	rep.set("setup_s", quantile(rep.SetupRuns, 0.5), "s")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	rep.Provenance = hostProvenance()
	return rep, nil
}

// measure runs one phase after a collection, so the previous phase's
// garbage is not charged to it, and records its allocations. Reference
// slices run before and after it, after a collection, and between items
// of the phases that call cal.maybe; their time is taken out of the
// phase's.
func measure(b bench, index int, dur time.Duration, tr *tracer, cal *calibrator) (*phaseResult, error) {
	runtime.GC()
	cal.reset()
	cal.slices(bracketSlices)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calCPU0, calWall0 := cal.spent()
	cpu0 := cpuTime()
	res, err := b.phase(index, dur, tr, cal)
	cpu := cpuTime() - cpu0
	calCPU, calWall := cal.spent()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	runtime.GC() // so the phase's leftover marking does not slow the slices
	cal.slices(bracketSlices)
	res.CPU = cpu - (calCPU - calCPU0)
	res.Elapsed -= calWall - calWall0
	res.RefScale = cal.scale()
	res.Mallocs, res.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.Spans = tr.snapshot()
	return res, nil
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// check records the phase's failures and its digest.
func (r *report) check(res *phaseResult, digestN int) {
	r.Attempted, r.Failed = res.Attempted, res.Failed
	r.Failures = append(r.Failures, res.Failures...)
	r.Wrong = append(r.Wrong, res.Wrong...)
	d, err := simDigest(res.Sims, digestN)
	if err != nil {
		r.Wrong = append(r.Wrong, err.Error())
	}
	r.Digest, r.DigestN = d, digestN
}

// addEndToEnd sets the end-to-end metrics of an untraced phase.
func (r *report) addEndToEnd(res *phaseResult) {
	var lat []float64
	done := 0
	for _, s := range res.Sims {
		if s.Err == "" {
			done++
			lat = append(lat, float64(s.Latency)/1e6)
		}
	}
	for _, c := range classes {
		var cl []float64
		for _, s := range res.Sims {
			if s.Err == "" && s.Class == c {
				cl = append(cl, float64(s.Latency)/1e6)
			}
		}
		if len(cl) > 0 {
			r.set("session_p50_ms."+c, quantile(cl, 0.5), "ms")
		}
	}
	steps := ms(res.Steps)
	secs := res.Elapsed.Seconds()
	cpuMS := ratio(float64(res.CPU)/1e6, float64(done))
	r.set("cpu_ms_per_sim", cpuMS, "ms")
	r.set("cpu_ms_per_sim_norm", cpuMS*res.RefScale, "ms")
	r.set("ref_scale", res.RefScale, "ratio")
	r.set("sim_ops_per_s", ratio(simOps(res.Sims), secs), "ops/s")
	r.set("sessions_per_s", ratio(float64(done), secs), "1/s")
	r.set("session_p50_ms", quantile(lat, 0.50), "ms")
	r.set("session_p85_ms", quantile(lat, 0.85), "ms")
	r.set("step_p50_ms", quantile(steps, 0.50), "ms")
	r.set("step_p95_ms", quantile(steps, 0.95), "ms")
	r.set("step_p99_ms", quantile(steps, 0.99), "ms")
	r.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	r.Samples["sessions"] = done
	r.Samples["steps"] = len(steps)
	r.Samples["phase_ms"] = int(res.Elapsed.Milliseconds())
	for name, v := range res.Extra {
		r.set(name, v, extraUnits[name])
	}
}

var extraUnits = map[string]string{
	"senss_slowdown_pct":     "%",
	"senss_mem_slowdown_pct": "%",
	"slo_met_share":          "ratio",
	"repeat_share":           "ratio",
}

// addPerLayer sets the per-layer metrics from the untraced phase (plain:
// allocation and simulated counters, which tracing would perturb or
// which do not depend on it) and the traced one (spans).
func (r *report) addPerLayer(plain, traced *phaseResult, micro, untraced map[string]float64) {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit) // the layer did no work in this workload
		}
	}
	for name, v := range micro {
		r.set(name, v, unitOf(name))
	}
	for name, v := range simCounters(plain.Sims) {
		r.set(name, v, unitOf(name))
	}
	ops := simOps(plain.Sims)
	r.set("host.allocs_per_op", ratio(float64(plain.Mallocs), ops), "1/op")
	r.set("host.alloc_bytes_per_op", ratio(float64(plain.Bytes), ops), "B/op")

	sp := traced.Spans
	for _, c := range classes {
		d := durationsMS(sp, "driver.new_session", c)
		r.set("driver.new_session_ms."+c+".p50", quantile(d, 0.50), "ms")
		r.set("driver.new_session_ms."+c+".p95", quantile(d, 0.95), "ms")
		r.Samples["driver.new_session."+c] = len(d)
	}
	var stepMS float64
	for _, d := range durationsMS(sp, "driver.step", "") {
		stepMS += d
	}
	var replayOps float64
	if traced.Serve != nil {
		// Driver spans of serve-mix come from the direct replay.
		for _, s := range traced.Sims[:min(traced.Serve.ReplayedCount, len(traced.Sims))] {
			replayOps += float64(s.ops())
		}
	} else {
		replayOps = simOps(traced.Sims)
	}
	r.set("driver.step_ms_per_kop", ratio(stepMS, replayOps/1000), "ms/kop")
	r.set("driver.close_ms", quantile(durationsMS(sp, "driver.close", ""), 0.5), "ms")

	if f := traced.Farm; f != nil {
		r.set("farm.job_ms.p50", quantile(f.JobMS, 0.50), "ms")
		r.set("farm.job_ms.p95", quantile(f.JobMS, 0.95), "ms")
		var busy float64
		for _, d := range f.JobMS {
			busy += d
		}
		r.set("farm.worker_busy_share", ratio(busy, float64(f.Workers)*float64(traced.Elapsed.Milliseconds())), "ratio")
		r.set("farm.dedup_share", 1-ratio(float64(f.Unique), float64(f.Jobs)), "ratio")
		r.Samples["farm.jobs"] = len(f.JobMS)
	}
	if s := traced.Serve; s != nil {
		for _, route := range []string{"create", "step", "delete"} {
			r.set("serve.client_ms."+route+".p50", quantile(s.ClientMS[route], 0.50), "ms")
			r.set("serve.client_ms."+route+".p99", quantile(s.ClientMS[route], 0.99), "ms")
			r.set("serve.handler_ms."+route+".p50", quantile(s.HandlerMS[route], 0.50), "ms")
			r.set("serve.handler_ms."+route+".p99", quantile(s.HandlerMS[route], 0.99), "ms")
			r.Samples["serve.requests."+route] = len(s.HandlerMS[route])
		}
		direct := quantile(s.DirectStepMS, 0.5)
		r.set("serve.direct_step_ms", direct, "ms")
		r.set("serve.overhead_ms", quantile(s.ServedStepMS, 0.5)-direct, "ms")
		r.set("serve.refused_share", ratio(float64(s.Refused), float64(s.Requests)), "ratio")
		r.set("serve.peak_sessions", float64(s.PeakSessions), "count")
		r.set("serve.peak_groups", float64(s.PeakGroups), "count")
		r.set("serve.repeat_share", ratio(float64(s.Repeats), float64(traced.Attempted)), "ratio")
		r.set("loadgen.lag_p99_ms", quantile(s.LagMS, 0.99), "ms")
		r.Samples["serve.replayed_sessions"] = s.ReplayedCount
	}

	// Tracing overhead: how much the traced phase lost against the
	// untraced one, in percent (positive = traced was slower).
	tracedOps := ratio(simOps(traced.Sims), traced.Elapsed.Seconds())
	r.set("trace.overhead.sim_ops_pct", 100*(1-ratio(tracedOps, untraced["sim_ops_per_s"])), "%")
	tracedStep := quantile(ms(traced.Steps), 0.5)
	r.set("trace.overhead.step_p50_pct", 100*(ratio(tracedStep, untraced["step_p50_ms"])-1), "%")
}

// addHostShares buckets the traced phase's CPU profile.
func (r *report) addHostShares(prof []byte) error {
	self, err := selfTimeByFunc(prof)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	var n int64
	for _, v := range self {
		n += v
	}
	for name, v := range hostShares(self) {
		r.set(name, v, "ratio")
	}
	r.Samples["profile_cpu_ms"] = int(n / 1e6)
	return nil
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// peakRSSMiB is the process's peak resident set (VmHWM), from getrusage.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
