package main

import (
	"time"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/cbcmac"
	"senss/internal/sim"
)

// microRepeats is how many times each microtiming runs; the median is
// reported.
const microRepeats = 5

// microMinTime is how long one timing must run before its mean counts.
const microMinTime = 20 * time.Millisecond

// microtimings times single inner-layer operations through their
// exported entry points, in ns per operation.
func microtimings(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	out["sim.handoff_ns"] = medianOf(tr, "micro.handoff", func(n int) {
		// Two procs alternating Sleep(1): every Sleep hands the run
		// token to the other proc.
		e := sim.NewEngine()
		body := func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Sleep(1)
			}
		}
		e.Spawn("a", body)
		e.Spawn("b", body)
		if err := e.Run(); err != nil {
			panic(err) // two procs that only sleep cannot deadlock
		}
	})
	key := aes.BlockFromUint64(0x0123456789abcdef, 0xfedcba9876543210)
	for _, name := range []string{crypto.Ref, crypto.Stdlib} {
		c, err := crypto.NewBackend(name, key)
		if err != nil {
			return nil, err
		}
		out["crypto.block_ns."+name] = medianOf(tr, "micro.block."+name, func(n int) {
			b := aes.BlockFromUint64(1, 2)
			for i := 0; i < n; i++ {
				b = c.Encrypt(b)
			}
			sinkBlock = b
		})
	}
	ref, err := crypto.NewBackend(crypto.Ref, key)
	if err != nil {
		return nil, err
	}
	out["cbcmac.update_ns.ref"] = medianOf(tr, "micro.cbcmac.ref", func(n int) {
		m := cbcmac.New(ref, aes.BlockFromUint64(3, 4))
		in := aes.BlockFromUint64(5, 6)
		for i := 0; i < n; i++ {
			in = m.Update(in)
		}
		sinkBlock = in
	})
	return out, nil
}

// sinkBlock keeps the timed loops' results live.
var sinkBlock aes.Block

// medianOf returns the median over microRepeats of the mean ns per
// operation of fn(n), with n doubled until one call takes microMinTime.
func medianOf(tr *tracer, name string, fn func(n int)) float64 {
	n := 2
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= microMinTime {
			break
		}
		n *= 2
	}
	xs := make([]float64, microRepeats)
	for i := range xs {
		sp := tr.begin(name, "", uint64(i), -1)
		t0 := time.Now()
		fn(n)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		tr.end(sp)
	}
	return quantile(xs, 0.5)
}
