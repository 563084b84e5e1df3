package sim

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// sampleInto registers pre-edge samples of (q1,q0) for cycles from..to and
// returns the slice the samples land in after Run.
func sampleInto(t *testing.T, e Engine, from, to int) *[]string {
	t.Helper()
	f := e.Flat()
	q0, q1 := netID(t, f, "q0"), netID(t, f, "q1")
	got := &[]string{}
	for c := from; c <= to; c++ {
		tm := uint64(c*period) - 10
		e.At(tm, func() {
			*got = append(*got, fmt.Sprintf("%v%v", e.Value(q1), e.Value(q0)))
		})
	}
	return got
}

func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			// Reference: one uninterrupted run.
			ref := mk()
			setupCounter(t, ref, last*period)
			refGot := sampleInto(t, ref, 2, last)
			if err := ref.Run(last * period); err != nil {
				t.Fatal(err)
			}

			// Producer: same run, snapshotting mid-flight at 4500ps.
			prod := mk()
			setupCounter(t, prod, last*period)
			prodGot := sampleInto(t, prod, 2, last)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}
			for i := range *refGot {
				if (*refGot)[i] != (*prodGot)[i] {
					t.Fatalf("snapshotting perturbed the producing run at sample %d: %s vs %s", i, (*refGot)[i], (*prodGot)[i])
				}
			}
			if ck == nil {
				t.Fatal("snapshot callback never fired")
			}
			if ck.TimePS != 4500 {
				t.Fatalf("checkpoint at %dps, want 4500", ck.TimePS)
			}

			// Consumer: a second engine warm-starts from the checkpoint and
			// must reproduce the reference tail bit for bit.
			warm := mk()
			if err := warm.Restore(ck); err != nil {
				t.Fatal(err)
			}
			warmGot := sampleInto(t, warm, 5, last)
			if err := warm.Run(last * period); err != nil {
				t.Fatal(err)
			}
			tail := (*refGot)[3:] // cycles 5..last
			if len(*warmGot) != len(tail) {
				t.Fatalf("warm run captured %d samples, want %d", len(*warmGot), len(tail))
			}
			for i := range tail {
				if (*warmGot)[i] != tail[i] {
					t.Fatalf("warm tail sample %d = %s, want %s (warm %v ref %v)", i, (*warmGot)[i], tail[i], *warmGot, tail)
				}
			}
		})
	}
}

func TestRestoreWithFaultMatchesColdRun(t *testing.T) {
	// A forced pulse across a capture edge must produce the same faulty
	// tail whether the run is simulated from t=0 or warm-started from a
	// pre-strike checkpoint — the invariant the injection campaign's
	// warm-start path rests on.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			inject := func(e Engine) {
				n1 := netID(t, e.Flat(), "n1")
				e.ScheduleForce(5800, n1, logic.L1)
				e.ScheduleRelease(6300, n1)
			}

			cold := mk()
			setupCounter(t, cold, last*period)
			inject(cold)
			coldGot := sampleInto(t, cold, 2, last)
			if err := cold.Run(last * period); err != nil {
				t.Fatal(err)
			}

			prod := mk()
			setupCounter(t, prod, last*period)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			warm := mk()
			if err := warm.Restore(ck); err != nil {
				t.Fatal(err)
			}
			inject(warm)
			warmGot := sampleInto(t, warm, 5, last)
			if err := warm.Run(last * period); err != nil {
				t.Fatal(err)
			}
			tail := (*coldGot)[3:]
			for i := range tail {
				if (*warmGot)[i] != tail[i] {
					t.Fatalf("faulty warm tail sample %d = %s, want %s (warm %v cold %v)", i, (*warmGot)[i], tail[i], *warmGot, tail)
				}
			}
		})
	}
}

func TestEngineReuseAcrossRestores(t *testing.T) {
	// One engine, restored repeatedly: a polluted faulty run must leave no
	// trace in the next restore-and-run cycle.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			cleanGot := sampleInto(t, prod, 5, last)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}
			clean := append([]string(nil), *cleanGot...)

			eng := mk()
			for trial := 0; trial < 3; trial++ {
				if err := eng.Restore(ck); err != nil {
					t.Fatal(err)
				}
				if trial == 1 {
					// Pollute: flip both flops and force a net, then run.
					n1 := netID(t, eng.Flat(), "n1")
					eng.ScheduleForce(5100, n1, logic.L1)
					if err := eng.ScheduleFlip(5300, cellIDByPath(t, eng, "u_ff0")); err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(last * period); err != nil {
						t.Fatal(err)
					}
					continue
				}
				got := sampleInto(t, eng, 5, last)
				if err := eng.Run(last * period); err != nil {
					t.Fatal(err)
				}
				for i := range clean {
					if (*got)[i] != clean[i] {
						t.Fatalf("trial %d sample %d = %s, want %s", trial, i, (*got)[i], clean[i])
					}
				}
			}
		})
	}
}

func cellIDByPath(t *testing.T, e Engine, path string) int {
	t.Helper()
	c, err := e.Flat().CellByPath(path)
	if err != nil {
		t.Fatal(err)
	}
	return c.ID
}

func TestMatchesCheckpointConvergence(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			var ck1, ck2 *Checkpoint
			prod.At(4500, func() { ck1 = prod.Snapshot() })
			prod.At(8500, func() { ck2 = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			// A clean resume from ck1 must converge onto ck2.
			warm := mk()
			if err := warm.Restore(ck1); err != nil {
				t.Fatal(err)
			}
			if err := warm.Run(8500); err != nil {
				t.Fatal(err)
			}
			if !warm.MatchesCheckpoint(ck2) {
				t.Fatal("clean warm run does not match the later golden checkpoint")
			}
			if warm.MatchesCheckpoint(ck1) {
				t.Fatal("state at 8500ps claims to match the 4500ps checkpoint")
			}

			// A state flip must break convergence.
			if err := warm.FlipState(cellIDByPath(t, warm, "u_ff1")); err != nil {
				t.Fatal(err)
			}
			if warm.MatchesCheckpoint(ck2) {
				t.Fatal("flipped state still matches the golden checkpoint")
			}
		})
	}
}

func TestRestoreKindAndDesignMismatch(t *testing.T) {
	f := counterDesign(t)
	ev := NewEventSim(f)
	lv := NewLevelSim(f)
	if err := lv.Restore(ev.Snapshot()); err == nil {
		t.Error("LevelSim accepted an EventSim checkpoint")
	}
	if err := ev.Restore(lv.Snapshot()); err == nil {
		t.Error("EventSim accepted a LevelSim checkpoint")
	}
	var nilCk *Checkpoint
	if err := ev.Restore(nilCk); err == nil {
		t.Error("nil checkpoint accepted")
	}
}

// TestRestoredEnginesScheduleIndependently: engines restored from one
// checkpoint must not share schedule storage. Each schedules a different
// value at a time the checkpoint already holds several actions for, and
// each must then see only its own.
func TestRestoredEnginesScheduleIndependently(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			rstn := netID(t, prod.Flat(), "rstn")
			// Time 6000 holds the clock edge plus two reset deasserts.
			for i := 0; i < 2; i++ {
				if err := prod.ScheduleInput(6000, rstn, logic.L1); err != nil {
					t.Fatal(err)
				}
			}
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			reset, free := mk(), mk()
			for _, e := range []Engine{reset, free} {
				if err := e.Restore(ck); err != nil {
					t.Fatal(err)
				}
			}
			// Scheduled in this order, the free-running engine's action
			// would overwrite the reset in any storage the two shared.
			if err := reset.ScheduleInput(6000, rstn, logic.L0); err != nil {
				t.Fatal(err)
			}
			if err := free.ScheduleInput(6000, rstn, logic.L1); err != nil {
				t.Fatal(err)
			}
			if err := reset.Run(6990); err != nil {
				t.Fatal(err)
			}
			if err := free.Run(6990); err != nil {
				t.Fatal(err)
			}
			f := reset.Flat()
			q0, q1 := netID(t, f, "q0"), netID(t, f, "q1")
			if got := fmt.Sprintf("%v%v", reset.Value(q1), reset.Value(q0)); got != "00" {
				t.Fatalf("engine reset at 6000 reads %s at 6990, want 00", got)
			}
			if reset.Value(rstn) != logic.L0 || free.Value(rstn) != logic.L1 {
				t.Fatalf("rstn reads %v and %v, want 0 and 1", reset.Value(rstn), free.Value(rstn))
			}
		})
	}
}
