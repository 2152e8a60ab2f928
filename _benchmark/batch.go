package main

import (
	"errors"
	"fmt"
	"time"

	"senss/internal/driver"
	"senss/internal/farm"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// bench is one prepared workload: set up once, then measured in phases.
type bench interface {
	// phase runs items of the given phase index for about dur. A nil
	// tracer measures without recording spans; cal, when not nil, gets
	// the chance to time a reference slice between items.
	phase(index int, dur time.Duration, tr *tracer, cal *calibrator) (*phaseResult, error)
	// digestItems is how many leading items sim_digest covers.
	digestItems() int
	close()
}

// runSession runs one simulation through driver.Session, stepping it in
// slices of step cycles. It returns the record and each Step's latency.
func runSession(it simItem, step uint64, tr *tracer, id uint64, parent int) (simRecord, []time.Duration) {
	class := classOf(it.Config)
	rec := simRecord{Index: it.Index, Class: class}
	t0 := time.Now()
	sp := tr.begin("driver.new_session", class, id, parent)
	s, err := driver.NewSession(it.Workload, it.Size, it.Config)
	tr.end(sp)
	if err != nil {
		rec.Err = err.Error()
		rec.Latency = time.Since(t0)
		return rec, nil
	}
	var steps []time.Duration
	for {
		sp := tr.begin("driver.step", class, id, parent)
		st := time.Now()
		done, err := s.Step(step)
		steps = append(steps, time.Since(st))
		tr.end(sp)
		if done {
			if err != nil {
				rec.Err = err.Error()
			}
			break
		}
	}
	rec.Run = s.Snapshot()
	sp = tr.begin("driver.close", class, id, parent)
	s.Close()
	tr.end(sp)
	rec.Latency = time.Since(t0)
	return rec, steps
}

// smpBench is smp-base (4 procs) and up-base (1 proc): the paper
// programs run back to back from one goroutine.
type smpBench struct {
	seed  uint64
	procs int
	step  uint64
}

func newSMPBench(seed uint64, procs int, step uint64) (*smpBench, error) {
	b := &smpBench{seed: seed, procs: procs, step: step}
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.Seed = derive(seed, streamWarmup)
	// ocean is the longest paper program, so set-up time is not a few ms
	// of noise.
	warm := simItem{Index: -1, Workload: "ocean", Size: workload.SizeBench, Config: cfg}
	if rec, _ := runSession(warm, step, nil, 0, -1); rec.Err != "" {
		return nil, fmt.Errorf("warm-up session: %s", rec.Err)
	}
	return b, nil
}

// digestItems covers the first two rounds.
func (b *smpBench) digestItems() int { return 2 * len(programs(workload.PaperSuite())) }

func (b *smpBench) close() {}

// phase runs whole rounds until dur has passed, and at least the rounds
// the digest covers.
func (b *smpBench) phase(index int, dur time.Duration, tr *tracer, cal *calibrator) (*phaseResult, error) {
	var col collector
	t0 := time.Now()
	for r := 0; r*len(programs(workload.PaperSuite())) < b.digestItems() || time.Since(t0) < dur; r++ {
		for _, it := range smpRound(b.seed, index, b.procs, r) {
			id := uint64(it.Index)
			root := tr.begin("session", classBase, id, -1)
			rec, steps := runSession(it, b.step, tr, id, root)
			tr.end(root)
			col.add(rec, steps)
			cal.maybe()
		}
	}
	res := &phaseResult{Elapsed: time.Since(t0), Sims: col.sims, Steps: col.steps}
	for _, s := range col.sims {
		res.Attempted++
		if s.Err != "" {
			res.fail("simulation %d: %s", s.Index, s.Err)
		}
	}
	return res, nil
}

// farmStats are the farm layer's per-phase figures.
type farmStats struct {
	JobMS   []float64
	Workers int
	Jobs    int // jobs submitted, duplicates included
	Unique  int // jobs left after the farm's deduplication
}

// figBench is figsweep: the Figure 6-10 sweep run cold, round after
// round, through a fresh in-memory farm.
type figBench struct {
	seed    uint64
	workers int
	step    uint64
	jobs    []farm.Job
}

func newFigBench(seed uint64, workers int, step uint64) (*figBench, error) {
	jobs, err := figJobs()
	if err != nil {
		return nil, err
	}
	b := &figBench{seed: seed, workers: workers, step: step, jobs: jobs}
	// Warm up on the first fully protected job: it is the one whose
	// set-up (integrity tree, memory pads) costs most.
	for _, j := range jobs {
		if classOf(j.Config) != classSenssM {
			continue
		}
		j.Config.Seed = derive(seed, streamWarmup)
		warm := simItem{Index: -1, Workload: j.Workload, Size: j.Size, Config: j.Config}
		if rec, _ := runSession(warm, step, nil, 0, -1); rec.Err != "" {
			return nil, fmt.Errorf("warm-up job: %s", rec.Err)
		}
		return b, nil
	}
	return nil, errors.New("figure job set has no fully protected job")
}

// digestItems covers the whole first round.
func (b *figBench) digestItems() int {
	unique, _ := farm.Dedupe(b.jobs)
	return len(unique)
}

func (b *figBench) close() {}

// phase runs whole sweeps, at least one, and no further one that would
// end more than half its length past dur, so a phase lasts about dur on
// average. Each sweep gets a fresh farm, so nothing is served from cache.
func (b *figBench) phase(index int, dur time.Duration, tr *tracer, _ *calibrator) (*phaseResult, error) {
	var col collector
	fs := &farmStats{Workers: b.workers}
	res := &phaseResult{Farm: fs, Extra: map[string]float64{}}
	t0 := time.Now()
	var sweep time.Duration
	for r := 0; r == 0 || time.Since(t0)+sweep/2 < dur; r++ {
		s0 := time.Now()
		jobs := seedJobs(b.jobs, b.seed, index, r)
		unique, hashes := farm.Dedupe(jobs)
		pos := make(map[string]int, len(hashes))
		for i, h := range hashes {
			pos[h] = r*len(unique) + i
		}
		fs.Jobs += len(jobs)
		fs.Unique += len(unique)
		f := farm.NewMem(b.workers)
		f.SetRunner(func(j farm.Job) (stats.Run, error) {
			idx := pos[j.Hash()]
			sp := tr.begin("farm.job", classOf(j.Config), uint64(idx), -1)
			rec, steps := runSession(simItem{Index: idx, Workload: j.Workload, Size: j.Size, Config: j.Config},
				b.step, tr, uint64(idx), sp)
			tr.end(sp)
			col.add(rec, steps)
			if rec.Err != "" {
				return rec.Run, errors.New(rec.Err)
			}
			return rec.Run, nil
		})
		// Job failures come back per result; the aggregate error repeats them.
		results, _ := f.Run(jobs)
		for _, h := range hashes {
			res.Attempted++
			if e := results[h].Err; e != "" {
				res.fail("job %d: %s", pos[h], e)
			}
		}
		sweep = time.Since(s0)
		if r == 0 {
			res.Extra["senss_slowdown_pct"] = meanSlowdown(jobs, results, "fig6", machine.SecurityBus)
			res.Extra["senss_mem_slowdown_pct"] = meanSlowdown(jobs, results, "fig10", machine.SecurityBusMem)
		}
	}
	res.Elapsed = time.Since(t0)
	res.Sims, res.Steps = col.sims, col.steps
	for _, s := range col.sims {
		fs.JobMS = append(fs.JobMS, float64(s.Latency)/1e6)
	}
	return res, nil
}

// meanSlowdown averages the simulated SENSS-over-base slowdown over the
// figure's points in the given security mode, each paired with the
// baseline the harness shares between them.
func meanSlowdown(jobs []farm.Job, results map[string]farm.Result, fig string, mode machine.SecurityMode) float64 {
	var sum float64
	n := 0
	for _, j := range jobs {
		if j.Figure != fig || j.Config.Security.Mode != mode {
			continue
		}
		base := j
		base.Config.Security = machine.DefaultConfig().Security
		sec, ok1 := results[j.Hash()]
		b, ok2 := results[base.Hash()]
		if !ok1 || !ok2 || sec.Err != "" || b.Err != "" {
			continue
		}
		sum += stats.SlowdownPct(b.Run, sec.Run)
		n++
	}
	return ratio(sum, float64(n))
}
