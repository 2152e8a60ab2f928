package driver

import (
	"runtime"
	"strings"
	"testing"

	"senss/internal/cpu"
	"senss/internal/machine"
	"senss/internal/workload"
)

// faulty runs a real workload but replaces processor 0's program with
// one that computes briefly and then panics, standing in for a
// simulation bug.
type faulty struct{ workload.Workload }

func (f faulty) Setup(m *machine.Machine, procs int) []cpu.Program {
	progs := f.Workload.Setup(m, procs)
	progs[0] = func(c *cpu.Port) {
		c.Think(100)
		panic("simulated fault")
	}
	return progs
}

// TestStepPanicClosesSession pins panic isolation at the session level:
// the panic reaches Step's caller, the session is closed on the way out
// with no processor left behind, and it reports the failure from then on.
func TestStepPanicClosesSession(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 2
	w, err := workload.New("falseshare", workload.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	s, err := start("falseshare", workload.SizeTest, cfg, faulty{w})
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = s.Step(1 << 20)
		return nil
	}()
	if got != "simulated fault" {
		t.Fatalf("recovered %v, want the program's panic value", got)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the panic, baseline %d", n, baseline)
	}
	done, err := s.Step(1 << 20)
	if !done || err == nil || !strings.Contains(err.Error(), "panicked at cycle") {
		t.Errorf("Step after the panic = %v, %v; want done with the panic recorded", done, err)
	}
	if _, err := s.Result(); err == nil {
		t.Error("panicked session reports success")
	}
	s.Close() // idempotent after the panic
}
