package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one metric the result line carries. BENCHMARK.json
// lists the same names; the benchmark's test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is printed by every untraced run, on every workload. The
// bounded cost is host CPU time per finished simulation, rescaled by the
// reference kernel's speed in the same run: raw CPU and wall-time figures
// of the same code spread too widely between runs on a shared host to
// carry a bound (params.json, host_time).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_sim_norm", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is printed by every traced run, on every workload; a layer a
// workload does not reach reads 0. It also carries the end-to-end figures
// that are not bounded: those only one workload has (the slowdowns,
// slo_met_share), failed_share, which is 0 when all is well, and the
// wall-time ones, whose run-to-run spread on a shared 2-vCPU host
// exceeded the largest allowed bound: sim_ops_per_s, sessions_per_s,
// session_p50_ms, session_p85_ms and step_p50_ms to step_p99_ms. The
// session tail is p85: a 30 s serve-mix run plays one 90-session plan
// period, which leaves 13 sessions beyond it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"farm.job_ms.p50", "ms"},
		{"farm.job_ms.p95", "ms"},
		{"farm.worker_busy_share", "ratio"},
		{"farm.dedup_share", "ratio"},
	}
	for _, c := range classes {
		defs = append(defs,
			metricDef{"driver.new_session_ms." + c + ".p50", "ms"},
			metricDef{"driver.new_session_ms." + c + ".p95", "ms"})
	}
	defs = append(defs,
		metricDef{"driver.step_ms_per_kop", "ms/kop"},
		metricDef{"driver.close_ms", "ms"},
		metricDef{"sim.handoff_ns", "ns"},
		metricDef{"crypto.block_ns.ref", "ns"},
		metricDef{"crypto.block_ns.stdlib", "ns"},
		metricDef{"cbcmac.update_ns.ref", "ns"},
	)
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host_share." + b, "ratio"})
	}
	defs = append(defs,
		metricDef{"host.allocs_per_op", "1/op"},
		metricDef{"host.alloc_bytes_per_op", "B/op"},
		metricDef{"sim.cycles_per_op", "cycles/op"},
		metricDef{"bus.txn_per_kop", "1/kop"},
		metricDef{"bus.c2c_per_kop", "1/kop"},
		metricDef{"bus.arb_wait_cyc_per_kop", "cycles/kop"},
		metricDef{"cache.l1d_miss_ratio", "ratio"},
		metricDef{"cache.l2_miss_ratio", "ratio"},
		metricDef{"core.auth_msgs_per_kop", "1/kop"},
		metricDef{"core.mask_stall_cyc_per_kop", "cycles/kop"},
		metricDef{"memsec.pad_miss_ratio", "ratio"},
		metricDef{"integrity.hash_fetches_per_kop", "1/kop"},
	)
	for _, route := range []string{"create", "step", "delete"} {
		defs = append(defs,
			metricDef{"serve.client_ms." + route + ".p50", "ms"},
			metricDef{"serve.client_ms." + route + ".p99", "ms"},
			metricDef{"serve.handler_ms." + route + ".p50", "ms"},
			metricDef{"serve.handler_ms." + route + ".p99", "ms"})
	}
	return append(defs,
		metricDef{"serve.direct_step_ms", "ms"},
		metricDef{"serve.overhead_ms", "ms"},
		metricDef{"serve.refused_share", "ratio"},
		metricDef{"serve.peak_sessions", "count"},
		metricDef{"serve.peak_groups", "count"},
		metricDef{"serve.repeat_share", "ratio"},
		metricDef{"loadgen.lag_p99_ms", "ms"},
		metricDef{"senss_slowdown_pct", "%"},
		metricDef{"senss_mem_slowdown_pct", "%"},
		metricDef{"slo_met_share", "ratio"},
		metricDef{"failed_share", "ratio"},
		metricDef{"session_p50_ms", "ms"},
		metricDef{"step_p95_ms", "ms"},
		metricDef{"step_p99_ms", "ms"},
		metricDef{"cpu_ms_per_sim", "ms"},
		metricDef{"ref_scale", "ratio"},
		metricDef{"sim_ops_per_s", "ops/s"},
		metricDef{"sessions_per_s", "1/s"},
		metricDef{"session_p85_ms", "ms"},
		metricDef{"step_p50_ms", "ms"},
		metricDef{"trace.overhead.sim_ops_pct", "%"},
		metricDef{"trace.overhead.step_p50_pct", "%"},
	)
}()

// provenance identifies the host and the code a result came from.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func hostProvenance() provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
		SourceHash: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests go.mod and every .go file under root, skipping
// hidden directories (build outputs, caches), so a result names the exact
// source it measured even when the checkout carries no commit.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(name)+"\n")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
