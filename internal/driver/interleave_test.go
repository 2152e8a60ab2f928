package driver_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"senss/internal/driver"
	"senss/internal/workload"
)

// This file is the RunUntil/Abort interleaving suite: sessions advanced
// by randomized cycle slices and torn down mid-window must be invisible
// at the stats level (byte-identical to serial driver.Run) and invisible
// at the runtime level (every simulated-processor coroutine is gone).
// The whole file runs under `make race`.

// checkGoroutines fails with a full stack dump unless the live goroutine
// count is back at the baseline — the goroutine-leak check for aborted
// and completed sessions. No polling: a finished proc's coroutine exits
// before RunUntil returns, and Abort stops every live one before it
// returns, so the count is exact as soon as Close does.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		k := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:k])
	}
}

// settledGoroutines waits for the live goroutine count to hold steady
// across several polls and returns it — a baseline uncontaminated by test
// runner goroutines still exiting from earlier tests and subtests.
func settledGoroutines() int {
	last, stable := runtime.NumGoroutine(), 0
	for stable < 5 {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	return last
}

// randomSlice draws a deadline-slice size skewed toward the punishing
// cases: 1-cycle slices that peek the event queue every cycle, and the
// occasional huge slice that swallows most of the run.
func randomSlice(r *rand.Rand) uint64 {
	switch r.Intn(8) {
	case 0:
		return 1
	case 1:
		return 50_000
	default:
		return 1 + uint64(r.Intn(2000))
	}
}

// TestRandomSlicedSessionMatchesRun pins that a session advanced by
// randomized deadline slices finishes with measurements deeply equal to
// the monolithic driver.Run, for several slicing seeds — and that the
// completed session's goroutines all retire.
func TestRandomSlicedSessionMatchesRun(t *testing.T) {
	cfg := smallCfg()
	want, err := driver.Run("falseshare", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Baseline inside the subtest: t.Run adds a goroutine of its
			// own, so the count must be taken and checked from here.
			baseline := settledGoroutines()
			r := rand.New(rand.NewSource(seed))
			s, err := driver.NewSession("falseshare", workload.SizeTest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for {
				done, err := s.Step(randomSlice(r))
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("randomized slicing diverged from driver.Run:\n got %+v\nwant %+v", got, want)
			}
			s.Close()
			checkGoroutines(t, baseline)
		})
	}
}

// TestAbortMidWindowNoLeaks closes sessions at randomized points in
// mid-flight — after a random number of random-size slices, including
// immediately after construction with zero cycles run — and checks that
// every processor goroutine unwinds, the snapshot stays readable, and
// the verdict records the early teardown.
func TestAbortMidWindowNoLeaks(t *testing.T) {
	cfg := smallCfg()
	baseline := settledGoroutines()

	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, err := driver.NewSession("ocean", workload.SizeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for steps := r.Intn(6); steps > 0; steps-- {
			if done, _ := s.Step(1 + uint64(r.Intn(700))); done {
				t.Fatal("workload finished before the abort point; pick a longer one")
			}
		}
		s.Close()
		if _, err := s.Result(); err == nil {
			t.Errorf("seed %d: aborted session reports success", seed)
		}
		if snap := s.Snapshot(); snap.Workload != "ocean" {
			t.Errorf("seed %d: snapshot lost after mid-window abort: %+v", seed, snap)
		}
		checkGoroutines(t, baseline)
	}
}

// TestConcurrentRandomSlicing is the -race workout: independent sessions
// advanced concurrently with per-goroutine random slicing, a third of
// them aborted mid-window, the rest required to match the serial
// driver.Run result exactly. Sessions share no state, so the race
// detector finding any conflict means engine or machine internals leaked
// across instances.
func TestConcurrentRandomSlicing(t *testing.T) {
	cfg := smallCfg()
	want, err := driver.Run("prodcons", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := settledGoroutines()

	const sessions = 9
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			s, err := driver.NewSession("prodcons", workload.SizeTest, cfg)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			abortAfter := -1
			if seed%3 == 0 {
				abortAfter = r.Intn(10)
			}
			for steps := 0; ; steps++ {
				if steps == abortAfter {
					s.Close()
					return
				}
				done, err := s.Step(randomSlice(r))
				if err != nil {
					errs <- err
					return
				}
				if done {
					break
				}
			}
			got, err := s.Result()
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("seed %d diverged from serial driver.Run", seed)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The workers themselves may still be exiting after wg.Done, so let
	// the count settle first. Their sessions' procs are already gone: a
	// count that settles above the baseline is a leak.
	settledGoroutines()
	checkGoroutines(t, baseline)
}
