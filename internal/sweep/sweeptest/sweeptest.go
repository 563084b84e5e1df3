// Package sweeptest holds the determinism oracle that every sweep
// execution path — RunLocal at any shard count, a campaignd coordinator
// and its worker fleet, failover, chaos, the artifact lake — is checked
// against: each campaign run once, unsharded and cold (inject.RunSoC
// with Options.ColdStart, every injection replayed from t=0). The
// oracle shares neither the shard split/merge nor the warm-start restore
// code it checks; only the verdict-derived fields the grids render are
// compared, since cold runs do different work for the same verdicts.
//
// Results are memoized per process, so a test binary simulates each
// campaign once however many tests compare against it. The package
// takes campaign specs rather than sweep grids because package sweep's
// own tests import it.
package sweeptest

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/shard"
	"repro/internal/socgen"
)

var (
	mu   sync.Mutex
	memo = map[string]*inject.Result{}
)

// Results returns the cold oracle's result for every campaign, keyed by
// the campaign's fingerprint — the map a sweep grid's Render consumes.
// Callers must not modify the returned results; they are shared.
func Results(campaigns []shard.CampaignSpec) (map[string]*inject.Result, error) {
	out := make(map[string]*inject.Result, len(campaigns))
	for _, cs := range campaigns {
		fp, err := cs.Fingerprint()
		if err != nil {
			return nil, err
		}
		if out[fp], err = cold(fp, cs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cold runs (or recalls) one campaign's cold, single-process result.
func cold(fp string, cs shard.CampaignSpec) (*inject.Result, error) {
	mu.Lock()
	defer mu.Unlock()
	if r, ok := memo[fp]; ok {
		return r, nil
	}
	cfg, err := socgen.ConfigByIndex(cs.SoC)
	if err != nil {
		return nil, err
	}
	prog, err := shard.WorkloadProgram(cs.Workload)
	if err != nil {
		return nil, err
	}
	opts := cs.Options()
	opts.ColdStart = true
	run, err := inject.RunSoC(cfg, prog, fault.DefaultDB(), opts)
	if err != nil {
		return nil, err
	}
	memo[fp] = run.Result
	return run.Result, nil
}
