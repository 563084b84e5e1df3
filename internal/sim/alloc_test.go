package sim_test

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// maxAllocsPerEval bounds the warm injection loop's heap allocations per
// cell evaluation: the engines' per-eval paths allocate nothing, so what
// remains is per-restore and per-step bookkeeping amortized over the
// evaluations of a tail.
const maxAllocsPerEval = 0.05

// TestWarmTailAllocsPerEval drives the warm-start injection loop — delta
// restore of a mid-run golden checkpoint, one state upset, run to the end
// — on a small SoC under both engines, and bounds allocations per cell
// evaluation.
func TestWarmTailAllocsPerEval(t *testing.T) {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := socgen.RunWorkload(riscv.MemcpyProgram(16), 32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := socgen.BuildStimulus(f, wl)
	if err != nil {
		t.Fatal(err)
	}
	seq := f.SequentialCells()
	for _, kind := range []sim.EngineKind{sim.KindEvent, sim.KindLevel} {
		t.Run(string(kind), func(t *testing.T) {
			golden, err := sim.New(kind, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Apply(golden); err != nil {
				t.Fatal(err)
			}
			mid := plan.DurationPS / 2
			if err := golden.Run(mid); err != nil {
				t.Fatal(err)
			}
			ck := golden.Snapshot()

			e, err := sim.New(kind, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(ck); err != nil {
				t.Fatal(err)
			}
			var runs, evals uint64
			allocs := testing.AllocsPerRun(20, func() {
				if err := e.RestoreDelta(ck); err != nil {
					t.Fatal(err)
				}
				// A different upset each run keeps the tails distinct.
				if err := e.ScheduleFlip(mid+1, seq[int(runs)%len(seq)]); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(plan.DurationPS); err != nil {
					t.Fatal(err)
				}
				runs++
				evals += e.CellEvals() - ck.Evals
			})
			perEval := allocs * float64(runs) / float64(evals)
			t.Logf("%s: %.1f allocs and %.0f evals per warm tail, %.4f allocs/eval",
				kind, allocs, float64(evals)/float64(runs), perEval)
			if perEval > maxAllocsPerEval {
				t.Fatalf("%s: %.4f allocs per cell eval over a warm tail, want <= %v", kind, perEval, maxAllocsPerEval)
			}
		})
	}
}
