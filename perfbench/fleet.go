package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/capi"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// kernels are the RISC-V workload kernels a Table I grid can run.
var kernels = []string{"memcpy", "dot", "crc", "sort", "fib"}

// Fleet settings. Workers poll every 20ms when idle so idle-backoff
// jitter stays small against a sweep of seconds; the coordinator lingers
// long because the benchmark stops it itself once results are in hand.
const (
	fleetShards      = 8
	workerPoll       = "20ms"
	workerMaxOffline = "5s" // a worker gives up this long after losing its coordinator
	procTimeout      = 30 * time.Second
	opTimeout        = 150 * time.Second
)

// fleetWorkers is the number of `campaignd work` processes: one per CPU,
// at most four.
func fleetWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// permute returns the seed's permutation of xs (a xorshift-driven
// Fisher-Yates shuffle), leaving xs unchanged.
func permute[T any](seed uint64, xs []T) []T {
	out := append([]T(nil), xs...)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := len(out) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func table1(kernel string) sweep.GridParams {
	return sweep.GridParams{Kind: "table1", Quick: true, Workload: kernel}
}

// runFleet is table1-fleet: the Table I quick grid submitted through
// capi to a fresh `campaignd serve` (new journal and lake each time)
// drained by fleetWorkers() `campaignd work` processes over loopback — the
// write path. Each round submits the grid three times per kernel, in the
// seed's order, so every run covers the same five grids and each run's
// median rests on fifteen sweeps. One set-up materialises and fingerprints
// the five grids, as a client does before submitting; at about 1ms of
// CPU it is repeated three times as often as other set-ups to keep its
// median steady. The oracle is sweep.RunLocal + Grid.Render of the same
// grid in this process.
func runFleet(r *run) error {
	r.show = []metricDef{{"sweep_s", "s"}, {"injections_per_s", "1/s"}}
	order := permute(r.cfg.seed, kernels)
	for i := 0; i < 3*setupReps; i++ {
		if err := r.setup(func(*tracer) error {
			for _, k := range order {
				g, err := table1(k).Grid()
				if err != nil {
					return err
				}
				if _, err := g.Spec.Fingerprint(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	got := map[string]map[int]string{}
	sweeps := map[string][]float64{} // untraced sweep seconds per kernel
	r.loop(3*len(order), func(o opCtx) (time.Duration, error) {
		k := order[o.input%len(order)]
		dir := filepath.Join(r.tmp, fmt.Sprintf("op%d", o.id))
		defer os.RemoveAll(dir)
		fr, err := r.sweepOnce(o, table1(k), dir, filepath.Join(dir, "lake"), fleetWorkers())
		if err != nil {
			return 0, err
		}
		if got[k] == nil {
			got[k] = map[int]string{}
		}
		got[k][o.id] = digest(fr.results)
		r.add(o, "peak_rss_mb", fr.rssMB)
		r.add(o, "sweep_s", fr.sweep.Seconds())
		if o.tr == nil && !o.warm {
			sweeps[k] = append(sweeps[k], fr.sweep.Seconds())
		}
		return fr.sweep, nil
	})
	for _, k := range order {
		inj, err := r.checkGrid(k, got[k])
		if err != nil {
			return err
		}
		for _, s := range sweeps[k] {
			r.samples["injections_per_s"] = append(r.samples["injections_per_s"], inj/s)
		}
	}
	return nil
}

// runReplay is table1-replay: the Table I quick grid, with the kernel
// the seed picks, submitted to a fresh coordinator with no workers whose
// lake was filled once in set-up — the read path: lake fetches of
// golden builds and partials, netlist regeneration, merge and render, no
// simulation. One set-up is one lake fill (a table1-fleet sweep). The
// oracle is the same as table1-fleet's.
func runReplay(r *run) error {
	r.show = []metricDef{{"sweep_s", "s"}, {"injections_per_s", "1/s"}}
	k := permute(r.cfg.seed, kernels)[0]
	fmt.Fprintf(r.out, "table1-replay: kernel %s\n", k)
	var lake string
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("fill%d", i))
		lake = filepath.Join(dir, "lake")
		if err := r.setup(func(*tracer) error {
			_, err := r.sweepOnce(opCtx{}, table1(k), dir, lake, fleetWorkers())
			return err
		}); err != nil {
			return fmt.Errorf("filling the lake: %w", err)
		}
	}
	got := map[int]string{}
	var sweeps []float64
	r.loop(1, func(o opCtx) (time.Duration, error) {
		dir := filepath.Join(r.tmp, fmt.Sprintf("op%d", o.id))
		defer os.RemoveAll(dir)
		fr, err := r.sweepOnce(o, table1(k), dir, lake, 0)
		if err != nil {
			return 0, err
		}
		got[o.id] = digest(fr.results)
		if o.tr != nil && o.tr.counts["shard.golden_builds"] != 0 {
			return 0, fmt.Errorf("replay ran %v golden builds, want 0", o.tr.counts["shard.golden_builds"])
		}
		r.add(o, "peak_rss_mb", fr.rssMB)
		r.add(o, "sweep_s", fr.sweep.Seconds())
		if o.tr == nil && !o.warm {
			sweeps = append(sweeps, fr.sweep.Seconds())
		}
		return fr.sweep, nil
	})
	inj, err := r.checkGrid(k, got)
	if err != nil {
		return err
	}
	for _, s := range sweeps {
		r.samples["injections_per_s"] = append(r.samples["injections_per_s"], inj/s)
	}
	return nil
}

// checkGrid compares the fetched results of every operation on kernel
// k's grid with in-process sweep.RunLocal + Grid.Render, and returns the
// grid's injection count.
func (r *run) checkGrid(k string, got map[int]string) (float64, error) {
	oracle, err := r.oracleDigest("table1-quick-"+k, func() (string, error) {
		g, err := table1(k).Grid()
		if err != nil {
			return "", err
		}
		res, err := sweep.RunLocal(g.Spec, sweep.LocalOptions{Shards: 1})
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := g.Render(&buf, res); err != nil {
			return "", err
		}
		injections := 0
		for _, cr := range res {
			injections += len(cr.Injections)
		}
		return fmt.Sprintf("%s %d", digest(buf.Bytes()), injections), nil
	})
	if err != nil {
		return 0, err
	}
	var want string
	var injections float64
	if _, err := fmt.Sscanf(oracle, "%s %g", &want, &injections); err != nil {
		return 0, fmt.Errorf("oracle table1-quick-%s: %q: %v", k, oracle, err)
	}
	r.checkOutputs("table1 "+k+" results", got, want)
	return injections, nil
}

// fleetRun is one submitted sweep's outcome.
type fleetRun struct {
	sweep   time.Duration // submit until the results bytes are in hand
	results []byte
	rssMB   float64 // summed peak RSS of the coordinator and its workers
}

// sweepOnce brings up a coordinator on dir's fresh journal and the given
// lake, submits params, starts `workers` worker processes, watches the
// sweep to completion over SSE, fetches the results, lets the workers
// exit on the drained signal and stops the coordinator. Untraced (o.tr
// nil), it only times; traced, the processes write -trace span files,
// the coordinator is scraped at drain, and the per-layer values land in
// o.tr.
func (r *run) sweepOnce(o opCtx, params sweep.GridParams, dir, lake string, workers int) (_ *fleetRun, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The per-run directory is removed on exit, so a failure carries the
	// end of the coordinator's log with it.
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, logTail(filepath.Join(dir, "coord.log"), 10))
		}
	}()
	traced := o.tr != nil
	args := []string{"serve", "-addr", "127.0.0.1:0", "-journal", filepath.Join(dir, "journal.jsonl"),
		"-lake-dir", lake, "-linger", "10m", "-shards", fmt.Sprint(fleetShards)}
	if traced {
		args = append(args, "-trace", filepath.Join(dir, "coord.trace.json"))
	}
	up := o.tr.begin("campaignd.start", o.root)
	coord, err := startProc(r.cfg.campaignd, args, filepath.Join(dir, "coord.log"), true)
	if err != nil {
		return nil, err
	}
	defer coord.stop()
	addr, err := coord.listenAddr(procTimeout)
	o.tr.end(up)
	if err != nil {
		return nil, err
	}
	url := "http://" + addr
	client := capi.NewClient(url)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	start := time.Now()
	var rep capi.SubmitReply
	if err := o.tr.call("capi.submit", o.root, func() (err error) {
		rep, err = client.Submit(ctx, params)
		return err
	}); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var ws []*proc
	defer func() {
		for _, w := range ws {
			w.stop()
		}
	}()
	for i := 0; i < workers; i++ {
		wargs := []string{"work", "-url", url, "-name", fmt.Sprintf("w%d", i+1),
			"-poll", workerPoll, "-max-offline", workerMaxOffline}
		if traced {
			wargs = append(wargs, "-trace", filepath.Join(dir, fmt.Sprintf("w%d.trace.json", i+1)))
		}
		w, err := startProc(r.cfg.campaignd, wargs, filepath.Join(dir, fmt.Sprintf("w%d.log", i+1)), false)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	var st capi.SweepStatus
	if err := o.tr.call("capi.watch", o.root, func() (err error) {
		st, err = client.WatchSweep(ctx, rep.Fingerprint, nil)
		return err
	}); err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	if st.State != capi.StateDone {
		return nil, fmt.Errorf("sweep ended %s: %s", st.State, st.Error)
	}
	fr := &fleetRun{}
	if err := o.tr.call("capi.results", o.root, func() (err error) {
		fr.results, err = client.Results(ctx, rep.Fingerprint)
		return err
	}); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	fr.sweep = time.Since(start)

	// Workers leave on their own once the coordinator reports the queue
	// drained; waiting for them lets their final metrics push land
	// before the drain-time scrape.
	for _, w := range ws {
		if !w.waitExit(procTimeout) {
			return nil, fmt.Errorf("worker %s did not exit after the sweep drained", w.name)
		}
	}
	var fo fleetObs
	if traced {
		if fo.coordScrape, err = scrape(ctx, url+"/metrics"); err != nil {
			return nil, err
		}
		if fo.fleetScrape, err = scrape(ctx, url+"/metrics/fleet"); err != nil {
			return nil, err
		}
	}
	coord.stop()
	if coord.err != nil {
		return nil, fmt.Errorf("coordinator exited: %v", coord.err)
	}
	rssKB := coord.maxRSSKB()
	for _, w := range ws {
		rssKB += w.maxRSSKB()
	}
	fr.rssMB = float64(rssKB) / 1024
	if traced {
		if fo.coord, err = readTrace(filepath.Join(dir, "coord.trace.json")); err != nil {
			return nil, err
		}
		for i := range ws {
			t, err := readTrace(filepath.Join(dir, fmt.Sprintf("w%d.trace.json", i+1)))
			if err != nil {
				return nil, err
			}
			fo.workers = append(fo.workers, t)
		}
		fo.sweepS = fr.sweep.Seconds()
		for name, v := range fo.layerMetrics() {
			o.tr.set(name, v)
		}
	}
	return fr, nil
}

// logTail returns the last n lines of a log file, indented.
func logTail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "  (no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "  " + strings.Join(lines, "\n  ")
}

func readTrace(path string) ([]obs.TraceEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	evs, err := obs.ValidateTrace(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return evs, nil
}

func scrape(ctx context.Context, url string) (*obs.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc, err := obs.ParseText(string(b))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return sc, nil
}

// fleetObs is what one traced sweep's processes exposed: the
// coordinator's and each worker's span file, and the coordinator's
// drain-time /metrics and /metrics/fleet scrapes.
type fleetObs struct {
	coord       []obs.TraceEvent
	workers     [][]obs.TraceEvent
	coordScrape *obs.Scrape
	fleetScrape *obs.Scrape
	sweepS      float64
}

// layerMetrics maps the fleet's traces and scrapes onto per-layer
// metrics. Trace timestamps are relative to each process's own tracer
// start, so intervals are only taken between events of one process.
// Lake counters come from the coordinator, whose store serves every
// resolution in the fleet.
func (f fleetObs) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	var submitTS, leaseTS int64 = -1, -1
	merged := map[string]bool{}
	golden := 0
	for _, ev := range f.coord {
		switch ev.Name {
		case "submit":
			if submitTS < 0 {
				submitTS = ev.TS
			}
		case "lease":
			if leaseTS < 0 || ev.TS < leaseTS {
				leaseTS = ev.TS
			}
		case "complete":
			merged[fmt.Sprint(ev.Args["campaign"], "/", ev.Args["shard"])] = true
		case "golden":
			golden++
		}
	}
	if submitTS >= 0 && leaseTS >= submitTS {
		m["sweep.first_lease_s"] = float64(leaseTS-submitTS) / 1e6
	}
	var execUS int64
	for _, evs := range f.workers {
		for _, ev := range evs {
			switch ev.Name {
			case "execute":
				execUS += ev.Dur
			case "golden":
				golden++
			}
		}
	}
	m["shard.golden_builds"] = float64(golden)
	if len(f.workers) > 0 {
		m["shard.execute_s"] = float64(execUS) / 1e6
		if f.sweepS > 0 {
			m["shard.worker_busy_frac"] = float64(execUS) / 1e6 / (float64(len(f.workers)) * f.sweepS)
		}
	}
	if sc := f.coordScrape; sc != nil {
		leases := sumSeries(sc, "shard_leases_total")
		m["shard.leases"] = leases
		m["shard.speculated"] = sumSeries(sc, "shard_speculated_total")
		m["shard.lease_expiries"] = sumSeries(sc, "shard_lease_expiries_total")
		if leases > 0 {
			m["shard.useful_ratio"] = float64(len(merged)) / leases
		}
		m["runstore.appends"] = sumSeries(sc, "runstore_appends_total")
		m["lake.hits"] = sumSeries(sc, "lake_hits_total")
		m["lake.misses"] = sumSeries(sc, "lake_misses_total")
		m["lake.fetch_s"] = sumSeries(sc, "lake_fetch_seconds_sum")
	}
	if sc := f.fleetScrape; sc != nil {
		m["capi.worker_requests"] = sumSeries(sc, "capi_request_seconds_count")
		m["capi.worker_request_s"] = sumSeries(sc, "capi_request_seconds_sum")
		if evals := sumSeries(sc, "inject_evals_total"); evals > 0 {
			m["sim.event.evals"] = evals
		}
	}
	return m
}

// sumSeries adds up every series of one sample name across label sets.
func sumSeries(sc *obs.Scrape, name string) float64 {
	total := 0.0
	for _, s := range sc.Series {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// proc is one child campaignd process. The benchmark waits for every
// proc it starts: stop is idempotent and always reaps.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // exit error, valid once done is closed
	addr chan string
	once sync.Once
}

// startProc runs bin with args, its output written to logPath. With
// watchAddr, the first "msg=serving ... addr=HOST:PORT" log line is
// delivered to listenAddr.
func startProc(bin string, args []string, logPath string, watchAddr bool) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	p := &proc{name: filepath.Base(logPath), done: make(chan struct{}), addr: make(chan string, 1)}
	var out io.Writer = f
	if watchAddr {
		out = &addrWatcher{w: f, found: p.addr}
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = out
	p.cmd.Stderr = out
	if err := p.cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// listenAddr waits for the coordinator to log its listen address.
func (p *proc) listenAddr(timeout time.Duration) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening: %v", p.name, p.err)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s not listening after %v", p.name, timeout)
	}
}

func (p *proc) waitExit(timeout time.Duration) bool {
	select {
	case <-p.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not
// exited within procTimeout, and waits for it.
func (p *proc) stop() {
	p.once.Do(func() {
		select {
		case <-p.done:
			return
		default:
		}
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may have just exited; the wait below settles it
		if !p.waitExit(procTimeout) {
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
}

// maxRSSKB is the exited process's peak resident set in KiB.
func (p *proc) maxRSSKB() int64 {
	<-p.done
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// addrWatcher forwards a process's log output and picks the listen
// address out of the coordinator's "serving" line.
type addrWatcher struct {
	w     io.Writer
	buf   []byte
	found chan string
	done  bool
}

func (a *addrWatcher) Write(b []byte) (int, error) {
	if !a.done {
		a.buf = append(a.buf, b...)
		for {
			i := bytes.IndexByte(a.buf, '\n')
			if i < 0 {
				break
			}
			line := string(a.buf[:i])
			a.buf = a.buf[i+1:]
			if addr, ok := servingAddr(line); ok {
				a.found <- addr
				a.done, a.buf = true, nil
				break
			}
		}
	}
	return a.w.Write(b)
}

// servingAddr extracts addr=HOST:PORT from the coordinator's
// `msg=serving` log line.
func servingAddr(line string) (string, bool) {
	if !strings.Contains(line, "msg=serving ") {
		return "", false
	}
	for _, field := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(field, "addr="); ok {
			return v, true
		}
	}
	return "", false
}
