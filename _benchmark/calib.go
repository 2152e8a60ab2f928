package main

import (
	"sort"
	"time"
)

// calibrator times a fixed reference kernel, the benchmark's own code, in
// short slices around and between a phase's simulations. A shared host
// runs a whole run 10-25% slower when its neighbours are busy, in CPU
// time as much as in wall time, and the reference slows with it; the
// program's cost per simulation divided by the reference's speed does
// not. The kernel neither allocates nor calls the program, so no change
// to the program can move it.
type calibrator struct {
	next      []uint32          // a random permutation walk over 4 MiB
	m         map[uint64]uint64 // a fixed set of 16Ki keys
	pos       uint32
	nominalNS float64 // chunk cost on an idle host, from params.json

	chunkNS   []float64 // CPU ns per chunk, one per slice
	cpu, wall time.Duration
	last      time.Time
}

const (
	calTable      = 1 << 20
	calKeys       = 1 << 14
	calWalk       = 20_000
	calHandoffs   = 200
	sliceChunks   = 70                     // ~20 ms a slice
	sliceInterval = 500 * time.Millisecond // between slices inside a phase
	bracketSlices = 10                     // before and after every phase
)

func newCalibrator(nominalNS float64) *calibrator {
	c := &calibrator{next: make([]uint32, calTable), m: make(map[uint64]uint64, calKeys), nominalNS: nominalNS}
	g := rng{0x5eed}
	for i := range c.next {
		c.next[i] = uint32(g.next() % calTable)
	}
	for k := uint64(0); k < calKeys; k++ {
		c.m[k] = k
	}
	return c
}

// chunk is one unit of reference work: a dependent walk of random reads,
// updates to existing map keys, and goroutine handoffs over unbuffered
// channels, the three kinds of host work the simulator does most.
func (c *calibrator) chunk() {
	p := c.pos
	for i := 0; i < calWalk; i++ {
		p = c.next[p]
	}
	c.pos = p
	for i := uint64(0); i < 2000; i++ {
		c.m[(uint64(p)+i*2654435761)%calKeys] += i
	}
	ping, pong := make(chan uint32), make(chan uint32)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := p
	for i := 0; i < calHandoffs; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	c.pos ^= v & 1
}

// reset starts a new phase's samples.
func (c *calibrator) reset() {
	if c == nil {
		return
	}
	c.chunkNS, c.cpu, c.wall, c.last = nil, 0, 0, time.Now()
}

// slices runs n slices back to back.
func (c *calibrator) slices(n int) {
	if c == nil {
		return
	}
	for i := 0; i < n; i++ {
		t0, cpu0 := time.Now(), cpuTime()
		for j := 0; j < sliceChunks; j++ {
			c.chunk()
		}
		cpu := cpuTime() - cpu0
		c.chunkNS = append(c.chunkNS, float64(cpu)/sliceChunks)
		c.cpu += cpu
		c.wall += time.Since(t0)
	}
	c.last = time.Now()
}

// maybe runs one slice if sliceInterval has passed since the last. Only
// a phase that runs one simulation at a time and collects little garbage
// calls it: a collection still marking a large heap would slow the slice.
func (c *calibrator) maybe() {
	if c != nil && time.Since(c.last) >= sliceInterval {
		c.slices(1)
	}
}

// spent is the CPU and wall time the slices took so far.
func (c *calibrator) spent() (time.Duration, time.Duration) {
	if c == nil {
		return 0, 0
	}
	return c.cpu, c.wall
}

// scale is nominal over measured reference cost, the median over the
// phase's slices: a cost times scale is what it would have been on the
// idle host params.json names. It is 1 without samples.
func (c *calibrator) scale() float64 {
	if c == nil || len(c.chunkNS) == 0 {
		return 1
	}
	s := append([]float64(nil), c.chunkNS...)
	sort.Float64s(s)
	return c.nominalNS / s[len(s)/2]
}
