package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"senss/internal/serve"
	"senss/internal/stats"
	"senss/internal/workload"
)

// spanHeader carries "<span id>:<parent span index>" from a traced client
// request to the server-side middleware, so handler spans nest under it.
const spanHeader = "X-Bench-Span"

// maxSteps bounds the step requests of one session; a session needing
// more never finishes and counts as failed.
const maxSteps = 10_000

// serveStats are the serving layer's per-phase figures.
type serveStats struct {
	ClientMS      map[string][]float64 // per route, send to response
	HandlerMS     map[string][]float64 // per route, inside Server.Handler
	Requests      int
	Refused       int // 429 responses
	Repeats       int
	LagMS         []float64 // dispatcher lateness per session
	SLOMet        int
	PeakSessions  int
	PeakGroups    int
	DirectStepMS  []float64 // replay of served sessions through driver.Session
	ServedStepMS  []float64 // handler step times of the replayed sessions
	ReplayedCount int

	// What replay needs from the phase.
	plan   []plannedSession
	outs   []sessionOutcome
	bySess map[string][]float64
}

// middleware times every request inside Server.Handler.
type middleware struct {
	next http.Handler
	tr   atomic.Pointer[tracer]

	mu      sync.Mutex
	on      bool
	byRoute map[string][]float64
	bySess  map[string][]float64 // step handler ms per server session id
}

func routeOf(r *http.Request) (route, id string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.Method == http.MethodPost && len(parts) == 2 && parts[1] == "sessions":
		return "create", ""
	case r.Method == http.MethodPost && len(parts) == 4 && parts[3] == "step":
		return "step", parts[2]
	case r.Method == http.MethodDelete && len(parts) == 3:
		return "delete", parts[2]
	}
	return "other", ""
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, id := routeOf(r)
	tr := m.tr.Load()
	parent, sid := -1, uint64(0)
	if h := r.Header.Get(spanHeader); h != "" {
		if _, err := fmt.Sscanf(h, "%d:%d", &sid, &parent); err != nil {
			parent, sid = -1, 0
		}
	}
	sp := tr.begin("handler."+route, "", sid, parent)
	t0 := time.Now()
	m.next.ServeHTTP(w, r)
	d := float64(time.Since(t0)) / 1e6
	tr.end(sp)
	m.mu.Lock()
	if m.on {
		m.byRoute[route] = append(m.byRoute[route], d)
		if route == "step" {
			m.bySess[id] = append(m.bySess[id], d)
		}
	}
	m.mu.Unlock()
}

// record starts (tr non-nil) or stops timing handlers and returns what
// the previous recording gathered.
func (m *middleware) record(tr *tracer) (map[string][]float64, map[string][]float64) {
	m.tr.Store(tr)
	m.mu.Lock()
	defer m.mu.Unlock()
	byRoute, bySess := m.byRoute, m.bySess
	m.on = tr != nil
	m.byRoute, m.bySess = map[string][]float64{}, map[string][]float64{}
	return byRoute, bySess
}

// serveBench is serve-mix: a senss-serve handler on a loopback listener,
// driven by an open-loop load generator over HTTP.
type serveBench struct {
	seed   uint64
	p      serveParams
	srv    *serve.Server
	hs     *http.Server
	served chan error
	mw     *middleware
	gen    *loadgen
}

// warmSpec is the set-up's one untimed session.
var warmSpec = serve.SessionSpec{Tenant: "warmup", Workload: "ocean", Size: "test", Procs: 2, Security: "senss", Seed: 1}

func newServeBench(seed uint64, p serveParams, workers int) (*serveBench, error) {
	srv := serve.New(serve.Options{Workers: workers, StepCycles: p.StepCycles})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	mw := &middleware{next: srv.Handler()}
	mw.record(nil)
	b := &serveBench{
		seed: seed, p: p, srv: srv, mw: mw,
		hs:     &http.Server{Handler: mw, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.gen = newLoadgen("http://"+ln.Addr().String(), workers, p.StepCycles, time.Duration(p.DrainS*float64(time.Second)))
	outs, _ := b.gen.run([]plannedSession{{Spec: warmSpec, Class: classSenss, RepeatOf: -1}})
	if warm := outs[0]; !warm.OK {
		b.close()
		return nil, fmt.Errorf("warm-up session: %s%s", warm.Failure, warm.SimErr)
	}
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		_ = b.hs.Close() // Shutdown timed out: drop the remaining connections
	}
	<-b.served
	b.srv.Close()
	b.gen.close()
}

// digestItems covers the first period of sessions.
func (b *serveBench) digestItems() int { return b.p.periodLen() }

// phase plays whole periods of the plan, as many as fill about dur.
func (b *serveBench) phase(index int, dur time.Duration, tr *tracer, _ *calibrator) (*phaseResult, error) {
	plan := servePlan(b.seed, index, b.p, b.p.periods(dur)*b.p.periodLen())

	b.mw.record(tr)
	stopPoll := b.pollPeaks(tr != nil)
	b.gen.tr = tr
	outs, lags := b.gen.run(plan)
	b.gen.tr = nil
	peakS, peakG := stopPoll()
	handlerMS, bySess := b.mw.record(nil)

	ss := &serveStats{
		ClientMS: map[string][]float64{}, HandlerMS: handlerMS, LagMS: ms(lags),
		PeakSessions: peakS, PeakGroups: peakG,
		plan: plan, outs: outs, bySess: bySess,
	}
	res := &phaseResult{Serve: ss, Attempted: len(plan), Extra: map[string]float64{}}
	limit := time.Duration(b.p.LatencyLimitMS * float64(time.Millisecond))
	for i, o := range outs {
		ss.Requests += o.Requests
		ss.Refused += o.Refused
		if plan[i].RepeatOf >= 0 {
			ss.Repeats++
		}
		for route, d := range o.ClientMS {
			ss.ClientMS[route] = append(ss.ClientMS[route], d...)
		}
		res.Elapsed = max(res.Elapsed, o.Done)
		if !o.OK {
			res.fail("session %d: %s%s", i, o.Failure, o.SimErr)
			continue
		}
		lat := o.Done - o.Due
		if lat <= limit {
			ss.SLOMet++
		}
		res.Sims = append(res.Sims, simRecord{Index: i, Class: plan[i].Class, Run: o.Stats, Latency: lat})
		res.Steps = append(res.Steps, o.Steps...)
		if r := plan[i].RepeatOf; r >= 0 && outs[r].OK && runDigest(outs[r].Stats) != runDigest(o.Stats) {
			res.Wrong = append(res.Wrong, fmt.Sprintf("session %d repeats session %d but its served stats differ", i, r))
		}
	}
	res.Extra["slo_met_share"] = ratio(float64(ss.SLOMet), float64(len(plan)))
	res.Extra["repeat_share"] = ratio(float64(ss.Repeats), float64(len(plan)))
	return res, nil
}

// replayLimit bounds how many served sessions a traced phase replays
// through driver.Session.
const replayLimit = 40

// replay runs a phase's served sessions again through driver.Session
// with the same slices, one at a time on an idle host: it times the
// direct steps, so the serving overhead shows, and it checks that serving
// changed no simulated statistic.
func (b *serveBench) replay(res *phaseResult, tr *tracer) {
	ss := res.Serve
	plan, outs, bySess := ss.plan, ss.outs, ss.bySess
	for i, o := range outs {
		if !o.OK || ss.ReplayedCount >= replayLimit {
			continue
		}
		cfg, err := plan[i].Spec.Config()
		if err != nil {
			res.Wrong = append(res.Wrong, fmt.Sprintf("session %d: %v", i, err))
			continue
		}
		it := simItem{Index: i, Workload: plan[i].Spec.Workload, Size: workload.SizeTest, Config: cfg}
		rec, steps := runSession(it, b.p.StepCycles, tr, uint64(i), -1)
		ss.ReplayedCount++
		ss.DirectStepMS = append(ss.DirectStepMS, ms(steps)...)
		ss.ServedStepMS = append(ss.ServedStepMS, bySess[o.ID]...)
		if rec.Err != "" || runDigest(rec.Run) != runDigest(o.Stats) {
			res.Wrong = append(res.Wrong, fmt.Sprintf("session %d: served stats differ from a direct driver.Session run", i))
		}
	}
}

// pollPeaks samples the server's occupancy until the returned stop
// function is called, which returns the peaks.
func (b *serveBench) pollPeaks(on bool) func() (int, int) {
	if !on {
		return func() (int, int) { return 0, 0 }
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peakS, peakG int
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			st := b.srv.Stats()
			peakS, peakG = max(peakS, st.Sessions), max(peakG, st.GroupsInUse)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() (int, int) {
		close(stop)
		wg.Wait()
		return peakS, peakG
	}
}

// loadgen is an open-loop session generator. Sessions fall due on a
// fixed schedule whatever the server's speed. Their requests share conns
// HTTP connections round-robin: a worker sends one request of the next
// session in line, then puts that session back at the end of the line,
// as independent tenants sharing a service would.
type loadgen struct {
	base      string
	client    *http.Client
	transport *http.Transport
	conns     int
	slice     uint64
	drain     time.Duration
	tr        *tracer // set between runs only
}

func newLoadgen(base string, conns int, slice uint64, drain time.Duration) *loadgen {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{
		base: base, transport: t, conns: conns, slice: slice, drain: drain,
		client: &http.Client{Transport: t, Timeout: 2 * time.Minute},
	}
}

func (g *loadgen) close() { g.transport.CloseIdleConnections() }

// sessionOutcome is what happened to one planned session. Times are
// offsets from the start of the run.
type sessionOutcome struct {
	Due, Done time.Duration
	OK        bool
	Failure   string // transport error, non-2xx status or unfinished
	SimErr    string // the simulation's own verdict
	ID        string
	Requests  int
	Refused   int
	Stats     stats.Run
	Steps     []time.Duration
	ClientMS  map[string][]float64
}

// The request a live session sends next.
const (
	sendCreate = iota
	sendStep
	sendDelete
)

// liveSession is a session between its due time and its last request.
type liveSession struct {
	ps   plannedSession
	out  *sessionOutcome
	root int // client.session span
	next int
}

// run plays the plan: a dispatcher releases each session at its due
// time, and conns workers send the live sessions' requests. It returns
// every outcome and the dispatcher's lateness per session.
func (g *loadgen) run(plan []plannedSession) ([]sessionOutcome, []time.Duration) {
	start := time.Now()
	outs := make([]sessionOutcome, len(plan))
	lags := make([]time.Duration, len(plan))
	deadline := plan[len(plan)-1].Due + g.drain
	// Sized to the plan, it holds every live session at once, so neither
	// the dispatcher nor a worker ever waits to put one in line.
	line := make(chan *liveSession, len(plan))
	var left atomic.Int64
	left.Store(int64(len(plan)))
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ls := range line {
				if !g.advance(ls, time.Since(start) > deadline) {
					line <- ls
					continue
				}
				ls.out.Done = time.Since(start)
				g.tr.end(ls.root)
				if left.Add(-1) == 0 {
					close(line) // every session has been sent, and is done
				}
			}
		}()
	}
	for i, ps := range plan {
		if d := time.Until(start.Add(ps.Due)); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(start) - ps.Due
		outs[i] = sessionOutcome{Due: ps.Due, ClientMS: map[string][]float64{}}
		line <- &liveSession{ps: ps, out: &outs[i], root: g.tr.begin("client.session", ps.Class, uint64(ps.Index), -1)}
	}
	wg.Wait()
	return outs, lags
}

// advance sends the session's next request and reports whether the
// session is over. Past the drain deadline a session is abandoned.
func (g *loadgen) advance(ls *liveSession, late bool) bool {
	o, id := ls.out, uint64(ls.ps.Index)
	if late {
		o.Failure = "unfinished at the drain deadline"
		return true
	}
	switch ls.next {
	case sendCreate:
		var info serve.SessionInfo
		if err := g.call(o, id, ls.root, "create", http.MethodPost, "/v1/sessions", ls.ps.Spec, &info); err != nil {
			o.Failure = err.Error()
			return true
		}
		o.ID, ls.next = info.ID, sendStep
	case sendStep:
		var sr serve.StepResponse
		t0 := time.Now()
		err := g.call(o, id, ls.root, "step", http.MethodPost, "/v1/sessions/"+o.ID+"/step", serve.StepRequest{Cycles: g.slice}, &sr)
		o.Steps = append(o.Steps, time.Since(t0))
		switch {
		case err != nil:
			o.Failure, ls.next = err.Error(), sendDelete
		case len(o.Steps) == maxSteps && !sr.Done:
			o.Failure, ls.next = "unfinished: step limit reached", sendDelete
		case sr.Done:
			ls.next = sendDelete
		}
	default:
		var fin serve.StatsResponse
		err := g.call(o, id, ls.root, "delete", http.MethodDelete, "/v1/sessions/"+o.ID, nil, &fin)
		switch {
		case o.Failure != "":
		case err != nil:
			o.Failure = err.Error()
		case !fin.Done:
			o.Failure = "unfinished: deleted before completion"
		case fin.Error != "":
			o.SimErr = fin.Error
		default:
			o.OK, o.Stats = true, fin.Stats
		}
		return true
	}
	return false
}

// call sends one JSON request and decodes a 2xx reply into out.
func (g *loadgen) call(o *sessionOutcome, id uint64, parent int, route, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, g.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := g.tr.begin("client."+route, "", id, parent)
	if sp >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", id, sp))
	}
	t0 := time.Now()
	o.Requests++
	resp, err := g.client.Do(req)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		switch {
		case err != nil:
		case resp.StatusCode == http.StatusTooManyRequests:
			o.Refused++
			err = fmt.Errorf("refused: %s", strings.TrimSpace(string(data)))
		case resp.StatusCode/100 != 2:
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		default:
			err = json.Unmarshal(data, out)
		}
	}
	o.ClientMS[route] = append(o.ClientMS[route], float64(time.Since(t0))/1e6)
	g.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}
