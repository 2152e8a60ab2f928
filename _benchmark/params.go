package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"senss/internal/workload"
)

// paramsJSON fixes every knob of the workloads, each with the reason it
// has its value. It is compiled in, so a run cannot pick up a stray copy.
//
//go:embed params.json
var paramsJSON []byte

// params is the part of params.json the code reads; the seeds and the
// reasons are there for people.
type params struct {
	MemoryLimitMiB map[string]any `json:"memory_limit_mib"`
	SetupRepeats   struct {
		Value int `json:"value"`
	} `json:"setup_repeats"`
	Batch struct {
		StepCycles map[string]uint64 `json:"step_cycles"`
	} `json:"batch"`
	Figsweep struct {
		Workers int `json:"workers"`
	} `json:"figsweep"`
	ServeMix  serveParams `json:"serve_mix"`
	Reference struct {
		ChunkNS float64 `json:"chunk_ns"`
	} `json:"reference"`
}

type serveParams struct {
	RatePerS           float64        `json:"rate_per_s"`
	LatencyLimitMS     float64        `json:"latency_limit_ms"`
	StepCycles         uint64         `json:"step_cycles"`
	Tenants            int            `json:"tenants"`
	SecurityPerProgram map[string]int `json:"security_per_program"`
	Copies             int            `json:"copies"`
	Procs              []int          `json:"procs"`
	Crypto             []string       `json:"crypto"`
	DrainS             float64        `json:"drain_s"`
}

func loadParams() (params, error) {
	var p params
	if err := json.Unmarshal(paramsJSON, &p); err != nil {
		return p, fmt.Errorf("params.json: %w", err)
	}
	sm := p.ServeMix
	slots := 0
	for _, c := range classes {
		slots += sm.SecurityPerProgram[c]
	}
	switch {
	case p.Figsweep.Workers < 1:
		return p, fmt.Errorf("params.json: figsweep workers must be at least 1")
	case p.Reference.ChunkNS <= 0:
		return p, fmt.Errorf("params.json: reference chunk_ns must be positive")
	case p.SetupRepeats.Value < 1:
		return p, fmt.Errorf("params.json: setup_repeats must be at least 1")
	case sm.StepCycles == 0:
		return p, fmt.Errorf("params.json: serve_mix step_cycles must be positive")
	case sm.RatePerS <= 0 || sm.Tenants < 1 || len(sm.Procs) == 0 || len(sm.Crypto) == 0:
		return p, fmt.Errorf("params.json: serve_mix needs a rate, tenants, procs and crypto")
	case slots == 0 || len(sm.SecurityPerProgram) != len(classes):
		return p, fmt.Errorf("params.json: security_per_program must cover %v", classes)
	case sm.Copies < 1:
		return p, fmt.Errorf("params.json: copies must be at least 1")
	}
	return p, nil
}

// batchStep returns the step size of a batch workload.
func (p params) batchStep(workload string) (uint64, error) {
	if c := p.Batch.StepCycles[workload]; c > 0 {
		return c, nil
	}
	return 0, fmt.Errorf("params.json: no batch step_cycles for %s", workload)
}

// memoryLimit returns the soft memory limit in bytes for a workload.
func (p params) memoryLimit(workload string) (int64, error) {
	mib, ok := p.MemoryLimitMiB[workload].(float64)
	if !ok || mib <= 0 {
		return 0, fmt.Errorf("params.json: no memory_limit_mib for %s", workload)
	}
	return int64(mib) << 20, nil
}

// periodLen is the number of sessions in one period of the serve-mix
// plan: every program in every class slot, each sent Copies times.
func (p serveParams) periodLen() int {
	slots := 0
	for _, n := range p.SecurityPerProgram {
		slots += n
	}
	return len(programs(workload.AllNames())) * slots * p.Copies
}

// periods is how many whole plan periods fill about dur, at least one.
func (p serveParams) periods(dur time.Duration) int {
	return max(1, int(math.Round(dur.Seconds()*p.RatePerS/float64(p.periodLen()))))
}
