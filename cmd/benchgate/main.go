// Command benchgate guards the warm-start speedup against regressions:
// it compares a freshly generated BENCH_warmstart.json with the committed
// baseline and fails when any baseline entry's evals_reduction_x — the
// eventsim headline, the levelsim one, and the compare_vcd detector
// variant alike — fell more than the allowed fraction below it, or when
// an entry whose baseline warm-started stopped warm-starting (the
// warm-start path silently degrading to cold replay would otherwise show
// up only as a reduction of ~1x, which a generous margin could mask
// until the next rebaseline), or when an entry's allocs_per_eval grew past
// the allowed fraction above its baseline. `make bench-smoke` (and CI through it)
// snapshots the committed file before the benchmark overwrites it and
// runs this gate afterwards.
//
// Cell-eval and allocation counts are deterministic to first order, so the
// gate needs no statistical slack for machine noise; the 20% default
// margin only absorbs legitimate small shifts (e.g. sampling-plan changes
// moving strikes around).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchEntry is the per-engine slice of BENCH_warmstart.json this gate
// cares about; unknown fields are ignored on purpose.
type benchEntry struct {
	Injections      int     `json:"injections"`
	EvalsReductionX float64 `json:"evals_reduction_x"`
	WallReductionX  float64 `json:"wall_reduction_x"`
	WarmStarts      uint64  `json:"warm_starts"`
	DeltaRestores   uint64  `json:"delta_restores"`
	WarmInjectWall  int64   `json:"warm_inject_wall_ns"`
	RestoreWall     int64   `json:"restore_wall_ns"`
	ChecksumWall    int64   `json:"checksum_wall_ns"`
	AllocsPerEval   float64 `json:"allocs_per_eval"`
}

// restoreShare is the fraction of warm-injection wall time spent inside
// engine restores. Raw wall times shift with the machine, but this
// within-run ratio is machine-independent to first order, so its growth
// is gateable: a restore path that got relatively more expensive (e.g.
// the delta path silently falling back to full snapshot copies) shows up
// here long before it dents the headline reduction.
func (e benchEntry) restoreShare() float64 {
	if e.WarmInjectWall <= 0 {
		return 0
	}
	return float64(e.RestoreWall) / float64(e.WarmInjectWall)
}

// checksumShare is the fraction of warm-injection wall time the
// integrity checksum (canonical encode + sha256 over the shard payload)
// would add per shard. With -audit-frac=0 this stamp is the integrity
// subsystem's entire steady-state cost, so it is gated absolutely: a
// share past the ceiling means checksumming went from noise to tax.
func (e benchEntry) checksumShare() float64 {
	if e.WarmInjectWall <= 0 {
		return 0
	}
	return float64(e.ChecksumWall) / float64(e.WarmInjectWall)
}

func main() {
	baseline := flag.String("baseline", "", "committed benchmark metrics (required)")
	fresh := flag.String("new", "BENCH_warmstart.json", "freshly generated benchmark metrics")
	maxRegress := flag.Float64("max-regress", 0.20, "largest tolerated fractional drop of evals_reduction_x, largest tolerated fractional growth of the restore wall share and of allocs_per_eval, and the absolute ceiling on the integrity-checksum share of warm wall")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	if err := gate(*baseline, *fresh, *maxRegress, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func readBench(path string) (map[string]benchEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]benchEntry
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return m, nil
}

// gate fails when any engine present in the baseline regressed or went
// missing; engines newly added to the fresh file pass through freely.
func gate(baselinePath, freshPath string, maxRegress float64, out *os.File) error {
	base, err := readBench(baselinePath)
	if err != nil {
		return err
	}
	got, err := readBench(freshPath)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("baseline %s holds no engines", baselinePath)
	}
	for engine, b := range base {
		g, ok := got[engine]
		if !ok {
			return fmt.Errorf("engine %q present in baseline but missing from %s", engine, freshPath)
		}
		floor := b.EvalsReductionX * (1 - maxRegress)
		if g.EvalsReductionX < floor {
			return fmt.Errorf("%s: evals_reduction_x %.2f regressed below %.2f (baseline %.2f, max regression %.0f%%)",
				engine, g.EvalsReductionX, floor, b.EvalsReductionX, 100*maxRegress)
		}
		if b.WarmStarts > 0 && g.WarmStarts == 0 {
			return fmt.Errorf("%s: baseline warm-started %d injections but the fresh run warm-started none — the warm path degraded to cold replay",
				engine, b.WarmStarts)
		}
		// Restore-wall gate: compare the within-run share of warm wall
		// spent restoring, not raw nanoseconds — the share cancels the
		// machine's speed out of both sides. Baselines without restore
		// timing (older files, or a variant that never restores) skip it.
		if bShare := b.restoreShare(); bShare > 0 {
			ceiling := bShare * (1 + maxRegress)
			if gShare := g.restoreShare(); gShare > ceiling {
				return fmt.Errorf("%s: restore share of warm wall %.1f%% grew past %.1f%% (baseline %.1f%%, max growth %.0f%%) — restore_wall_ns %d over warm_inject_wall_ns %d",
					engine, 100*gShare, 100*ceiling, 100*bShare, 100*maxRegress, g.RestoreWall, g.WarmInjectWall)
			}
		}
		// Checksum gate: absolute, not baseline-relative — the integrity
		// stamp must stay a rounding error on warm wall regardless of what
		// any earlier run measured. Entries without checksum timing (older
		// baselines) simply have share 0 and pass.
		if cShare := g.checksumShare(); cShare > maxRegress {
			return fmt.Errorf("%s: checksum share of warm wall %.1f%% exceeds %.0f%% — with -audit-frac=0 the integrity stamp is the whole overhead budget (checksum_wall_ns %d over warm_inject_wall_ns %d)",
				engine, 100*cShare, 100*maxRegress, g.ChecksumWall, g.WarmInjectWall)
		}
		// Allocation gate: heap allocations per warm cell eval are a
		// machine-independent count, so they gate against the baseline
		// directly. Entries without the field (older baselines) skip it.
		if b.AllocsPerEval > 0 {
			ceiling := b.AllocsPerEval * (1 + maxRegress)
			if g.AllocsPerEval > ceiling {
				return fmt.Errorf("%s: allocs_per_eval %.4f grew past %.4f (baseline %.4f, max growth %.0f%%) — the engines' warm inner loop started allocating",
					engine, g.AllocsPerEval, ceiling, b.AllocsPerEval, 100*maxRegress)
			}
		}
		fmt.Fprintf(out, "benchgate: %s ok: evals_reduction_x %.2f vs baseline %.2f (floor %.2f), warm_starts %d, delta_restores %d, restore share %.1f%%, checksum share %.2f%%, allocs_per_eval %.4f vs baseline %.4f\n",
			engine, g.EvalsReductionX, b.EvalsReductionX, floor, g.WarmStarts, g.DeltaRestores, 100*g.restoreShare(), 100*g.checksumShare(), g.AllocsPerEval, b.AllocsPerEval)
	}
	return nil
}
