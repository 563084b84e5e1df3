// Command campaignd serves fault-injection sweeps — whole experiment
// grids of campaigns — as resources over a versioned HTTP API.
//
// One binary, two modes:
//
//	campaignd serve [-addr :8372] [-journal fleet.jsonl]           # empty service
//	campaignd serve -sweep table1 -shards 8 -journal grid.jsonl    # self-submitted grid
//	campaignd serve -soc 1 -shards 16 -journal soc1.jsonl          # single campaign
//	campaignd work  -url http://coordinator:8372 [-name w1] [-poll 2s]
//
// serve is a long-lived coordinator. Sweeps are submitted to it — POST
// /v1/sweeps with a declarative grid description, or the -sweep/-soc
// flags, which are nothing more than a self-submission at startup —
// listed (GET /v1/sweeps), watched (GET /v1/sweeps/{fp}), fetched (GET
// /v1/sweeps/{fp}/results) and cancelled (DELETE /v1/sweeps/{fp}); see
// internal/capi for the wire contract and the typed client. For every
// sweep the coordinator builds and plans campaigns incrementally (the
// injection plan is drawn up front, so sharding is a pure index split),
// loads journaled shards, leases the rest to workers across all live
// sweeps from one routing surface, journals every accepted result, and
// merges each campaign into the exact single-process result the moment
// its last shard lands; a drained sweep's rendered tables are byte-
// identical to the per-campaign cold inject.RunSoC oracle. Leases
// expire: a shard leased to a worker that dies is re-issued to the next
// worker. Live workers heartbeat their leases, so a long shard is
// renewed, not re-issued. serve exits once every submitted sweep is
// terminal and the -linger grace window passes without new work.
//
// work polls the coordinator in a lease/execute/post loop through the
// typed capi client, backing off with jitter while idle. A worker
// builds each campaign (netlist, golden run, checkpoint schedule) once
// per process and reuses it for every shard it executes; the
// coordinator's golden-run-affinity scheduling keeps a worker on the
// campaign it has already built while that campaign has pending shards.
//
// Both modes are observable (see DESIGN.md "Observability" and "Fleet
// federation & live watch"): GET /metrics on the serve API, -debug-addr
// for a side server with /metrics plus net/http/pprof in either mode,
// and -trace FILE to write the shard-lifecycle span journal as Chrome
// trace_event JSON on exit. Workers additionally push their registry to
// the coordinator (-push, default 5s), which re-exposes the merged
// worker-labeled view on GET /metrics/fleet, and every sweep can be
// followed live over GET /v1/sweeps/{fp}?watch=1 (SSE; socfault
// -submit -watch). Instrumentation never changes what a sweep computes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "work":
		err = runWork(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "campaignd: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  campaignd serve [-addr HOST:PORT] [-journal FILE]        # wait for POST /v1/sweeps
  campaignd serve -sweep table1|table3|let [-lets L,..] [-fluxes F,..] [-outdir DIR] [flags]
  campaignd serve -soc N -shards K [-journal FILE] [campaign flags]
  campaignd work -url http://HOST:PORT [-name ID] [-poll DUR]

observability (either mode): -debug-addr HOST:PORT (pprof + /metrics),
-trace FILE (Chrome trace_event span journal); serve also exposes GET
/metrics and the federated GET /metrics/fleet on the API address, and
workers push their registry there every -push (0 disables).`)
}

// defaultWorkerName derives a worker identity that is unique enough for
// progress reporting; correctness never depends on it.
func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// parseDurationFlag guards the duration flags shared by both modes.
func positiveDuration(name string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-%s must be positive, got %v", name, d)
	}
	return nil
}
