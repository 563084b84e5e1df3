package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	line := summarize("op_s", "s", xs)
	for _, want := range []string{"op_s", "median=99.5", "p90=", "n=200"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q lacks %q", line, want)
		}
	}
	if line := summarize("op_s", "s", xs[:5]); !strings.Contains(line, "tail=n/a") || !strings.Contains(line, "n=5") {
		t.Errorf("short summary %q must say the tail is unavailable and give n", line)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	spans := []span{
		{ID: 1, Name: "op", Start: at(0), End: at(10)},
		// Overlapping children count once; the last one is clipped to
		// its parent, and its own child makes it partly non-self.
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Name: "a", Start: at(2), End: at(5)},
		{ID: 4, Parent: 1, Name: "b", Start: at(8), End: at(12)},
		{ID: 5, Parent: 4, Name: "c", Start: at(9), End: at(10)},
	}
	incl, self := spanTotals(spans)
	for name, want := range map[string]time.Duration{"op": 4, "a": 5, "b": 3, "c": 1} {
		if got := self[name]; got != want*time.Second {
			t.Errorf("self[%s] = %v, want %v", name, got, want*time.Second)
		}
	}
	if incl["a"] != 5*time.Second || incl["b"] != 4*time.Second {
		t.Errorf("inclusive a=%v b=%v, want 5s and 4s", incl["a"], incl["b"])
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.call("x", tr.begin("op", 0), func() error { called = true; return nil }); err != nil || !called {
		t.Fatal("a nil tracer must still run the call")
	}
	tr.count("n", 1)
	tr.set("r", 1)
}

func TestFleetScrapeToMetrics(t *testing.T) {
	coordText := strings.Join([]string{
		"# TYPE shard_leases_total counter",
		`shard_leases_total{sweep="a"} 3`,
		`shard_leases_total{sweep="b"} 1`,
		"# TYPE shard_speculated_total counter",
		"shard_speculated_total 1",
		"# TYPE shard_lease_expiries_total counter",
		"shard_lease_expiries_total 0",
		"# TYPE runstore_appends_total counter",
		"runstore_appends_total 5",
		"# TYPE lake_hits_total counter",
		`lake_hits_total{kind="golden"} 2`,
		`lake_hits_total{kind="partial"} 7`,
		"# TYPE lake_misses_total counter",
		`lake_misses_total{kind="golden"} 1`,
		"# TYPE lake_fetch_seconds histogram",
		`lake_fetch_seconds_bucket{le="+Inf"} 9`,
		"lake_fetch_seconds_sum 0.25",
		"lake_fetch_seconds_count 9",
		"",
	}, "\n")
	fleetText := strings.Join([]string{
		"# TYPE capi_request_seconds histogram",
		`capi_request_seconds_bucket{le="+Inf",method="POST",path="/v1/lease",worker="w1"} 10`,
		`capi_request_seconds_sum{method="POST",path="/v1/lease",worker="w1"} 0.5`,
		`capi_request_seconds_count{method="POST",path="/v1/lease",worker="w1"} 10`,
		`capi_request_seconds_bucket{le="+Inf",method="POST",path="/v1/lease",worker="w2"} 6`,
		`capi_request_seconds_sum{method="POST",path="/v1/lease",worker="w2"} 0.25`,
		`capi_request_seconds_count{method="POST",path="/v1/lease",worker="w2"} 6`,
		"# TYPE inject_evals_total counter",
		`inject_evals_total{worker="w1"} 100`,
		`inject_evals_total{worker="w2"} 50`,
		"",
	}, "\n")
	coord, err := obs.ParseText(coordText)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := obs.ParseText(fleetText)
	if err != nil {
		t.Fatal(err)
	}
	complete := func(ts int64, shard int) obs.TraceEvent {
		return obs.TraceEvent{Name: "complete", Ph: "i", TS: ts, Args: map[string]any{"campaign": "c", "shard": shard}}
	}
	f := fleetObs{
		coord: []obs.TraceEvent{
			{Name: "submit", Ph: "i", TS: 1_000_000},
			{Name: "golden", Ph: "X", TS: 1_100_000, Dur: 50},
			{Name: "lease", Ph: "i", TS: 1_500_000},
			{Name: "lease", Ph: "i", TS: 1_250_000},
			complete(2_000_000, 0), complete(2_100_000, 1), complete(2_200_000, 1),
		},
		// Worker timestamps are on their own clocks: only durations and
		// counts cross processes.
		workers: [][]obs.TraceEvent{
			{{Name: "execute", Ph: "X", TS: 5, Dur: 1_000_000}, {Name: "golden", Ph: "X", TS: 1, Dur: 3}},
			{{Name: "execute", Ph: "X", TS: 9, Dur: 500_000}},
		},
		coordScrape: coord,
		fleetScrape: fleet,
		sweepS:      1.5,
	}
	want := map[string]float64{
		"sweep.first_lease_s":    0.25,
		"shard.golden_builds":    2,
		"shard.execute_s":        1.5,
		"shard.worker_busy_frac": 0.5,
		"shard.leases":           4,
		"shard.speculated":       1,
		"shard.lease_expiries":   0,
		"shard.useful_ratio":     0.5,
		"runstore.appends":       5,
		"lake.hits":              9,
		"lake.misses":            1,
		"lake.fetch_s":           0.25,
		"capi.worker_requests":   16,
		"capi.worker_request_s":  0.75,
		"sim.event.evals":        150,
	}
	got := f.layerMetrics()
	for name, w := range want {
		if v, ok := got[name]; !ok || math.Abs(v-w) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected metric %s", name)
		}
	}
}

func testRun(t *testing.T, trace bool) *run {
	t.Helper()
	r, err := newRun(config{workload: "test", seconds: 1e-9, trace: trace, dir: t.TempDir()}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOracleMismatchCountsAsFailure(t *testing.T) {
	r := testRun(t, false)
	outputs := map[int]string{}
	r.loop(1, func(o opCtx) (time.Duration, error) {
		outputs[o.id] = "good"
		if o.id == 1 {
			outputs[o.id] = "bad"
		}
		for _, m := range endToEnd {
			r.add(o, m.name, 1)
		}
		return time.Millisecond, nil
	})
	if n := r.checkOutputs("test", outputs, "good"); n != 1 {
		t.Fatalf("checkOutputs found %d mismatches, want 1", n)
	}
	res := r.result()
	if res.Correct || res.Failed != 1 || res.Attempted != len(outputs) {
		t.Fatalf("result %+v: want incorrect, 1 failed of %d", res, len(outputs))
	}
	if r.report(io.Discard) {
		t.Fatal("report must fail the run on an oracle mismatch")
	}
}

func TestOperationErrorCountsAsFailure(t *testing.T) {
	r := testRun(t, true)
	r.loop(1, func(o opCtx) (time.Duration, error) {
		if o.tr != nil {
			return 0, errMismatch
		}
		return time.Millisecond, nil
	})
	res := r.result()
	// Warm-up, untraced and traced: the traced one failed.
	if res.Attempted != 3 || res.Failed != 1 || res.Correct {
		t.Fatalf("result %+v: want 3 attempted, 1 failed, incorrect", res)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced result lacks %s", m.name)
		}
	}
}

func TestMissingEndToEndSampleIsIncorrect(t *testing.T) {
	r := testRun(t, false)
	r.loop(1, func(o opCtx) (time.Duration, error) { return time.Millisecond, nil })
	if res := r.result(); res.Correct {
		t.Fatal("a run without setup_s or peak_rss_mb samples must not be correct")
	}
}

func TestOracleDigestIsCached(t *testing.T) {
	r := testRun(t, false)
	calls := 0
	compute := func() (string, error) { calls++; return "abc 12", nil }
	for i := 0; i < 2; i++ {
		d, err := r.oracleDigest("k", compute)
		if err != nil || d != "abc 12" {
			t.Fatalf("oracleDigest = %q, %v", d, err)
		}
	}
	if calls != 1 {
		t.Fatalf("oracle computed %d times, want 1", calls)
	}
}

func TestServingAddr(t *testing.T) {
	if a, ok := servingAddr(`level=INFO msg=serving epoch=1 addr=127.0.0.1:43469 lease=10m0s shards=8`); !ok || a != "127.0.0.1:43469" {
		t.Errorf("servingAddr = %q, %v", a, ok)
	}
	if _, ok := servingAddr(`level=INFO msg="debug server listening" addr=127.0.0.1:1`); ok {
		t.Error("only the serving line carries the API address")
	}
}

func TestPermuteIsSeeded(t *testing.T) {
	a, b := permute(7, kernels), permute(7, kernels)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("same seed, different order")
	}
	sorted := append([]string(nil), a...)
	sort.Strings(sorted)
	want := append([]string(nil), kernels...)
	sort.Strings(want)
	if strings.Join(sorted, ",") != strings.Join(want, ",") {
		t.Fatalf("permute(7) = %v is not a permutation of %v", a, kernels)
	}
	if strings.Join(permute(8, kernels), ",") == strings.Join(a, ",") && strings.Join(permute(9, kernels), ",") == strings.Join(a, ",") {
		t.Error("different seeds give the same order")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program in step:
// every listed workload exists, and the metric names and units are the
// same, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, program has %v", w.Name, workloadNames())
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
