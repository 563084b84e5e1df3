package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineJSON = `{
  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "wall_reduction_x": 11.7},
  "levelsim": {"injections": 30, "evals_reduction_x": 3.1, "wall_reduction_x": 3.0}
}`

func TestGatePassesWithinMargin(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baselineJSON)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 10.2},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.4}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("10.2 vs 12.5 is inside the 20%% margin: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baselineJSON)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 9.0},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.4}
	}`)
	err := gate(base, fresh, 0.20, os.Stdout)
	if err == nil {
		t.Fatal("9.0 vs baseline 12.5 must fail the 20% gate")
	}
	if !strings.Contains(err.Error(), "eventsim") {
		t.Fatalf("error %q does not name the regressed engine", err)
	}
}

func TestGateFailsOnMissingEngine(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baselineJSON)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.6}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err == nil {
		t.Fatal("dropped levelsim entry must fail the gate")
	}
}

func TestGateAgainstCommittedBaseline(t *testing.T) {
	// The committed BENCH_warmstart.json must gate cleanly against itself —
	// this is exactly what `make bench-smoke` does on an unchanged tree.
	committed := "../../BENCH_warmstart.json"
	if _, err := os.Stat(committed); err != nil {
		t.Skip("no committed benchmark file")
	}
	if err := gate(committed, committed, 0.20, os.Stdout); err != nil {
		t.Fatalf("committed baseline fails against itself: %v", err)
	}
}

func TestGateFailsOnRestoreShareGrowth(t *testing.T) {
	dir := t.TempDir()
	// Baseline: restores are 2% of warm wall. Fresh: 10% — the delta
	// path degraded — while the headline reduction is unchanged.
	base := writeBench(t, dir, "base.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "restore_wall_ns": 1000000}
	}`)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "restore_wall_ns": 5000000}
	}`)
	err := gate(base, fresh, 0.20, os.Stdout)
	if err == nil {
		t.Fatal("restore share growing 2% -> 10% must fail the 20% gate")
	}
	if !strings.Contains(err.Error(), "restore share") {
		t.Fatalf("error %q does not name the restore share", err)
	}
}

func TestGatePassesRestoreShareWithinMargin(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "restore_wall_ns": 1000000}
	}`)
	// Same share on a machine twice as slow: raw restore wall doubled,
	// but so did warm wall — the ratio gate must not trip.
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 100000000, "restore_wall_ns": 2200000}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("2.2%% vs baseline 2%% share is inside the 20%% growth margin: %v", err)
	}
}

func TestGateSkipsRestoreShareWithoutBaselineTiming(t *testing.T) {
	dir := t.TempDir()
	// Baseline predates restore timing (fields absent -> zero); the share
	// gate must not divide by zero or reject the fresh run.
	base := writeBench(t, dir, "base.json", baselineJSON)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "restore_wall_ns": 40000000},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.1}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("baseline without restore timing must skip the share gate: %v", err)
	}
}

func TestGateFailsOnChecksumShareOverCeiling(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baselineJSON)
	// Checksumming eats 25% of warm wall — with -audit-frac=0 that stamp
	// is the integrity subsystem's entire overhead, and it blew the
	// absolute 20% budget even though nothing regressed vs baseline.
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "checksum_wall_ns": 12500000},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.1}
	}`)
	err := gate(base, fresh, 0.20, os.Stdout)
	if err == nil {
		t.Fatal("checksum share of 25% must fail the absolute 20% ceiling")
	}
	if !strings.Contains(err.Error(), "checksum share") {
		t.Fatalf("error %q does not name the checksum share", err)
	}
}

func TestGatePassesChecksumShareUnderCeiling(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baselineJSON)
	// A realistic stamp: well under 1% of warm wall. Entries without
	// checksum timing (levelsim here) skip the gate entirely.
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "warm_inject_wall_ns": 50000000, "checksum_wall_ns": 150000},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.1}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("0.3%% checksum share is far under the ceiling: %v", err)
	}
}

func TestGateFailsWhenWarmStartsVanish(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", `{
	  "compare_vcd": {"injections": 60, "evals_reduction_x": 5.0, "warm_starts": 60}
	}`)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "compare_vcd": {"injections": 60, "evals_reduction_x": 5.1, "warm_starts": 0}
	}`)
	err := gate(base, fresh, 0.20, os.Stdout)
	if err == nil {
		t.Fatal("a variant whose baseline warm-starts must fail the gate when the fresh run never warm-starts")
	}
	if !strings.Contains(err.Error(), "compare_vcd") {
		t.Fatalf("error %q does not name the degraded variant", err)
	}
}

func TestGateFailsOnAllocsPerEvalGrowth(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "allocs_per_eval": 0.010}
	}`)
	// The engines' inner loop allocating again: allocs per eval jump far
	// past the 20% margin while the headline reduction is unchanged.
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "allocs_per_eval": 1.6}
	}`)
	err := gate(base, fresh, 0.20, os.Stdout)
	if err == nil {
		t.Fatal("allocs_per_eval growing 0.010 -> 1.6 must fail the 20% gate")
	}
	if !strings.Contains(err.Error(), "allocs_per_eval") {
		t.Fatalf("error %q does not name allocs_per_eval", err)
	}
}

func TestGatePassesAllocsPerEvalWithinMargin(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "allocs_per_eval": 0.010}
	}`)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "allocs_per_eval": 0.0115}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("0.0115 vs baseline 0.010 is inside the 20%% margin: %v", err)
	}
}

func TestGateSkipsAllocsPerEvalWithoutBaselineField(t *testing.T) {
	dir := t.TempDir()
	// A legacy baseline has no allocs_per_eval; any fresh value passes.
	base := writeBench(t, dir, "base.json", baselineJSON)
	fresh := writeBench(t, dir, "fresh.json", `{
	  "eventsim": {"injections": 150, "evals_reduction_x": 12.5, "allocs_per_eval": 1.6},
	  "levelsim": {"injections": 30, "evals_reduction_x": 3.1}
	}`)
	if err := gate(base, fresh, 0.20, os.Stdout); err != nil {
		t.Fatalf("baseline without allocs_per_eval must skip the allocation gate: %v", err)
	}
}
