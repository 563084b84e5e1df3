// Package sim provides two gate-level logic simulation engines over a
// flattened netlist:
//
//   - EventSim: an event-driven simulator with per-cell inertial delays and
//     a time-ordered event queue — the stand-in for the commercial Synopsys
//     VCS baseline of the paper.
//   - LevelSim: a levelized oblivious (compiled rank-order) simulator that
//     re-evaluates the full combinational rank order at every scheduled time
//     step — the stand-in for the open-source OSS-CVC baseline.
//
// Both engines share the Engine interface, support force/release on nets
// (the SET injection mechanism) and sequential-state flips (the SEU
// injection mechanism), and expose value-change callbacks that the vpi and
// vcd layers build on. Time is measured in integer picoseconds.
package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// NetCallback observes a net value change at a simulation time.
type NetCallback func(t uint64, v logic.V)

// Engine is the common contract of both simulation engines.
type Engine interface {
	// Name identifies the engine ("EventSim" or "LevelSim").
	Name() string
	// Flat returns the design under simulation.
	Flat() *netlist.Flat
	// Now returns the current simulation time in picoseconds.
	Now() uint64
	// Value returns the present value of a net.
	Value(net int) logic.V
	// State returns the stored state of a sequential cell.
	State(cellID int) (logic.V, error)
	// FlipState inverts the stored state of a sequential cell at the
	// current time — the SEU fault action.
	FlipState(cellID int) error
	// ScheduleInput drives a primary input to v at time t.
	ScheduleInput(t uint64, net int, v logic.V) error
	// ScheduleForce overrides a net to v at time t regardless of its
	// driver — the SET fault action's leading edge.
	ScheduleForce(t uint64, net int, v logic.V)
	// ScheduleRelease removes a force at time t, restoring the driven
	// value — the SET fault action's trailing edge.
	ScheduleRelease(t uint64, net int)
	// ScheduleFlip inverts a sequential cell's state at time t.
	ScheduleFlip(t uint64, cellID int) error
	// At runs fn when simulation time reaches t.
	At(t uint64, fn func())
	// OnNetChange registers a value-change callback for a net.
	OnNetChange(net int, fn NetCallback)
	// Run advances simulation until no event remains at or before `until`,
	// leaving Now() == until.
	Run(until uint64) error
	// CellEvals reports how many cell evaluations the run performed — the
	// work metric behind the runtime comparisons of Table III.
	CellEvals() uint64
	// Snapshot captures the engine's complete execution state — values,
	// forces, sequential state, eval counter and all queued data events —
	// as an immutable checkpoint. Registered callbacks are not captured.
	Snapshot() *Checkpoint
	// Restore resets the engine wholesale to a checkpoint previously taken
	// on the same design and engine kind, discarding all registered
	// callbacks; the caller re-registers observers before resuming Run.
	// Restoring is the warm-start primitive: a run resumed from a
	// checkpoint is bit-identical to one simulated from time zero.
	Restore(*Checkpoint) error
	// RestoreDelta is Restore with the wholesale copy replaced by a
	// dirty-set rewrite when ck is the checkpoint this engine most
	// recently restored: only the per-net and per-cell state touched
	// since that restore is rewritten, and the schedule is brought back
	// by whichever of a repair or a straight copy the engine's queue
	// makes cheaper. The resulting engine state is bit-identical to a
	// full Restore(ck); the saving is proportional to how little of the
	// tail the previous injection actually simulated, which is what lets
	// a batch of strike-sorted injections sharing one restore point
	// amortize the restore cost. Any other checkpoint falls back to
	// Restore.
	RestoreDelta(*Checkpoint) error
	// MatchesCheckpoint reports whether the engine's present state is
	// indistinguishable from the checkpoint (ignoring callbacks and the
	// eval counter), i.e. whether its future evolution is guaranteed
	// bit-identical to a run resumed from that checkpoint.
	MatchesCheckpoint(*Checkpoint) bool
}

// EngineKind selects an engine implementation by name.
type EngineKind string

// Engine kinds. The VCS/CVC aliases document which published baseline each
// engine stands in for.
const (
	KindEvent EngineKind = "EventSim"
	KindLevel EngineKind = "LevelSim"
)

// New constructs an engine of the given kind over a flattened design.
func New(kind EngineKind, f *netlist.Flat) (Engine, error) {
	switch kind {
	case KindEvent:
		return NewEventSim(f), nil
	case KindLevel:
		return NewLevelSim(f), nil
	}
	return nil, fmt.Errorf("sim: unknown engine kind %q", kind)
}

// validateInput checks that net is a primary input of f.
func validateInput(f *netlist.Flat, net int) error {
	if net < 0 || net >= len(f.Nets) {
		return fmt.Errorf("sim: net %d out of range", net)
	}
	if !f.Nets[net].IsPI {
		return fmt.Errorf("sim: net %q is not a primary input", f.Nets[net].Name)
	}
	return nil
}

// validateSeqCell checks that cellID names a sequential cell of f.
func validateSeqCell(f *netlist.Flat, cellID int) error {
	if cellID < 0 || cellID >= len(f.Cells) {
		return fmt.Errorf("sim: cell %d out of range", cellID)
	}
	if !f.Cells[cellID].Def.IsSequential() {
		return fmt.Errorf("sim: cell %q is not sequential", f.Cells[cellID].Path)
	}
	return nil
}

// pinBuffers returns input and output scratch large enough for any cell
// of f, so the engines' per-eval paths never allocate.
func pinBuffers(f *netlist.Flat) (in, out []logic.V) {
	maxIn, maxOut := 0, 0
	for _, c := range f.Cells {
		maxIn = max(maxIn, len(c.In))
		maxOut = max(maxOut, len(c.Out))
	}
	return make([]logic.V, maxIn), make([]logic.V, maxOut)
}
