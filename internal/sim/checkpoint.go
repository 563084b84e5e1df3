package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Checkpoint is an immutable snapshot of an engine's complete execution
// state at one simulation instant: net values, force state, sequential
// state, the eval counter, and every scheduled *data* event still in the
// queue (input, force, release, flip, and pending inertial transitions).
//
// Function callbacks (At / OnNetChange) are deliberately NOT captured: they
// belong to the run's observer, not to the design state. A caller that
// restores a checkpoint re-registers whatever callbacks the resumed run
// needs — this is what lets the injection campaign restore a golden
// checkpoint and attach a fresh fault action plus tail-only monitors.
//
// A Checkpoint is engine-kind specific and safe for concurrent use by any
// number of restoring engines: Restore never writes into it. EventSim
// copies; LevelSim's agenda aliases action lists capped at their length,
// so any append reallocates.
type Checkpoint struct {
	// Kind is the engine implementation that produced the snapshot.
	Kind EngineKind
	// TimePS is the simulation time the snapshot was taken at.
	TimePS uint64
	// Evals is the producing engine's CellEvals() at the snapshot instant.
	Evals uint64

	design string
	nets   int
	cells  int

	ev *eventCheckpoint
	lv *levelCheckpoint
}

// check validates that a checkpoint of the expected kind can be restored
// onto an engine simulating design f.
func (ck *Checkpoint) check(kind EngineKind, f *netlist.Flat) error {
	if ck == nil {
		return fmt.Errorf("sim: nil checkpoint")
	}
	if ck.Kind != kind {
		return fmt.Errorf("sim: checkpoint kind %s cannot restore a %s", ck.Kind, kind)
	}
	if ck.design != f.Name || ck.nets != len(f.Nets) || ck.cells != len(f.Cells) {
		return fmt.Errorf("sim: checkpoint of %s (%d nets, %d cells) does not match design %s (%d nets, %d cells)",
			ck.design, ck.nets, ck.cells, f.Name, len(f.Nets), len(f.Cells))
	}
	return nil
}

// ckptEvent is the value form of one queued data event. phase is normalized
// at snapshot time: 0 for events scheduled before the producing run began
// (the pre-scheduled stimulus), 1 for events the run created dynamically
// (pending inertial transitions). On restore, events a caller schedules
// before resuming Run take phase 0 with fresh sequence numbers, which slots
// them after the restored stimulus but before the restored in-flight
// transitions at equal times — exactly the order a cold run would have used.
type ckptEvent struct {
	t      uint64
	seq    uint64
	phase  uint32
	kind   evKind
	net    int
	cellID int
	val    logic.V
}

type eventCheckpoint struct {
	seqBase uint64
	cur     []logic.V
	driven  []logic.V
	forced  []bool
	state   []logic.V
	// The queued data events, sorted by (t, phase, seq), are stored as
	// events ++ tail. Snapshot fills events only; ShareTails may split off
	// the suffix common with the preceding checkpoint of the same run into
	// tail, aliased into that checkpoint's storage (copy-on-write: nothing
	// mutates checkpoint slices after creation). pendingIdx maps each net
	// to its in-flight inertial transition's index in the combined list,
	// or -1.
	events     []ckptEvent
	tail       []ckptEvent
	pendingIdx []int32
}

// numEvents reports the length of the combined queued-event list.
func (e *eventCheckpoint) numEvents() int { return len(e.events) + len(e.tail) }

// eventAt indexes the combined events ++ tail list.
func (e *eventCheckpoint) eventAt(i int) ckptEvent {
	if i < len(e.events) {
		return e.events[i]
	}
	return e.tail[i-len(e.events)]
}

type levelCheckpoint struct {
	cur       []logic.V
	inputVal  []logic.V
	forced    []bool
	forcedVal []logic.V
	state     []logic.V
	prevClk   []logic.V
	// times lists agenda times that still hold at least one data action,
	// ascending; actions is parallel, each slice in original append order
	// with function actions dropped. As with eventCheckpoint, the logical
	// sequences are times ++ tailTimes and actions ++ tailActions, with
	// the tails aliased into the preceding checkpoint by ShareTails.
	times       []uint64
	actions     [][]lsAction
	tailTimes   []uint64
	tailActions [][]lsAction
}

// numTimes reports the length of the combined agenda-time list.
func (l *levelCheckpoint) numTimes() int { return len(l.times) + len(l.tailTimes) }

// timeAt indexes the combined times ++ tailTimes list.
func (l *levelCheckpoint) timeAt(i int) uint64 {
	if i < len(l.times) {
		return l.times[i]
	}
	return l.tailTimes[i-len(l.times)]
}

// actionsAt indexes the combined actions ++ tailActions list.
func (l *levelCheckpoint) actionsAt(i int) []lsAction {
	if i < len(l.actions) {
		return l.actions[i]
	}
	return l.tailActions[i-len(l.actions)]
}

// sharedActionsAt is actionsAt capped at its length, for an engine's
// agenda to alias instead of copying: the agenda only ever reads its
// slices or appends to them, and an append to a full slice reallocates,
// so the checkpoint's storage is never written.
func (l *levelCheckpoint) sharedActionsAt(i int) []lsAction {
	acts := l.actionsAt(i)
	return acts[:len(acts):len(acts)]
}

func cloneV(v []logic.V) []logic.V { return append([]logic.V(nil), v...) }
func cloneB(v []bool) []bool       { return append([]bool(nil), v...) }

func equalV(a, b []logic.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalB(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cmpCkptEvent orders checkpoint events as the queue does: time, then
// phase, then sequence number.
func cmpCkptEvent(a, b ckptEvent) int {
	return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.phase, b.phase), cmp.Compare(a.seq, b.seq))
}

// loadQueue replaces the event queue with the checkpoint's events,
// reusing the heap's backing array. The checkpoint lists them in queue
// order, so the copy is already a valid heap. An evNet entry the
// checkpoint does not list as its net's pending transition comes back
// free, exactly as it was queued.
func (s *EventSim) loadQueue(e *eventCheckpoint) {
	s.evts = s.evts[:0]
	for _, part := range [2][]ckptEvent{e.events, e.tail} {
		base := len(s.evts)
		for i, ce := range part {
			s.evts = append(s.evts, event{
				t: ce.t, seq: ce.seq, phase: ce.phase, kind: ce.kind,
				net: int32(ce.net), cellID: int32(ce.cellID), val: ce.val,
				free: ce.kind == evNet && e.pendingIdx[ce.net] != int32(base+i),
			})
		}
	}
}

// Snapshot implements Engine.
func (s *EventSim) Snapshot() *Checkpoint {
	ev := &eventCheckpoint{
		seqBase: s.seq,
		cur:     cloneV(s.cur),
		driven:  cloneV(s.driven),
		forced:  cloneB(s.forced),
		state:   cloneV(s.state),
	}
	for i := range s.evts {
		e := &s.evts[i]
		if e.kind == evFunc || s.cancelled(e) {
			continue
		}
		ph := uint32(0)
		if s.running && e.phase >= s.phase {
			ph = 1
		}
		ev.events = append(ev.events, ckptEvent{
			t: e.t, seq: e.seq, phase: ph, kind: e.kind,
			net: int(e.net), cellID: int(e.cellID), val: e.val,
		})
	}
	slices.SortFunc(ev.events, cmpCkptEvent)
	ev.pendingIdx = make([]int32, len(s.pendSeq))
	for i := range ev.pendingIdx {
		ev.pendingIdx[i] = -1
	}
	for i, ce := range ev.events {
		if ce.kind == evNet && s.pendSeq[ce.net] == ce.seq+1 {
			ev.pendingIdx[ce.net] = int32(i)
		}
	}
	return &Checkpoint{
		Kind:   KindEvent,
		TimePS: s.now,
		Evals:  s.cellEvals,
		design: s.flat.Name,
		nets:   len(s.flat.Nets),
		cells:  len(s.flat.Cells),
		ev:     ev,
	}
}

// Restore implements Engine. It resets the engine wholesale to the
// checkpointed instant: values, forces, sequential state, the eval counter
// and the queued data events. All registered callbacks are discarded — the
// caller re-registers the observers the resumed run needs before calling
// Run again.
func (s *EventSim) Restore(ck *Checkpoint) error {
	if err := ck.check(KindEvent, s.flat); err != nil {
		return err
	}
	e := ck.ev
	copy(s.cur, e.cur)
	copy(s.driven, e.driven)
	copy(s.forced, e.forced)
	copy(s.state, e.state)
	s.now = ck.TimePS
	s.seq = e.seqBase
	s.phase = 0
	s.running = false
	s.cellEvals = ck.Evals
	s.cbs = map[int][]NetCallback{}
	s.resetFns()
	s.loadQueue(e)
	for nid, idx := range e.pendingIdx {
		s.relinkPending(e, nid, idx)
	}
	s.armDeltaTracking(ck)
	return nil
}

// relinkPending sets net nid's pending tag to the checkpoint event at
// idx, or clears it when idx is -1.
func (s *EventSim) relinkPending(e *eventCheckpoint, nid int, idx int32) {
	if idx < 0 {
		s.pendSeq[nid] = 0
		return
	}
	ce := e.eventAt(int(idx))
	s.pendSeq[nid] = ce.seq + 1
	s.pendVal[nid] = ce.val
}

// resetFns drops the At callbacks; restores discard them, and no evFunc
// event survives a restore.
func (s *EventSim) resetFns() {
	clear(s.fns)
	s.fns = s.fns[:0]
}

// armDeltaTracking resets the dirty sets after a full restore, making ck
// the baseline RestoreDelta rewrites against.
func (s *EventSim) armDeltaTracking(ck *Checkpoint) {
	if s.netDirty == nil {
		s.netDirty = make([]bool, len(s.flat.Nets))
		s.cellDirty = make([]bool, len(s.flat.Cells))
	}
	for _, nid := range s.dirtyNets {
		s.netDirty[nid] = false
	}
	for _, cid := range s.dirtyCells {
		s.cellDirty[cid] = false
	}
	s.dirtyNets = s.dirtyNets[:0]
	s.dirtyCells = s.dirtyCells[:0]
	s.lastRestored = ck
}

// RestoreDelta implements Engine. When ck is the checkpoint this engine
// most recently restored, only the nets and cells touched since that
// restore are rewritten: untouched state is provably already equal to a
// full Restore's output, because every mutation path records its target
// in the dirty sets — cancelling a pending transition included, since
// that is a store into the net's pending tag. The queue is recopied
// whole: events are held by value and the checkpoint lists them in heap
// order, so a straight copy is cheaper than finding and repairing the
// entries the tail consumed, cancelled or added. Any other checkpoint
// falls back to Restore.
func (s *EventSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	e := ck.ev
	s.loadQueue(e)
	// State: rewrite only the dirty entries, relinking pending tags from
	// the checkpoint.
	for _, nid := range s.dirtyNets {
		s.cur[nid] = e.cur[nid]
		s.driven[nid] = e.driven[nid]
		s.forced[nid] = e.forced[nid]
		s.relinkPending(e, int(nid), e.pendingIdx[nid])
		s.netDirty[nid] = false
	}
	s.dirtyNets = s.dirtyNets[:0]
	for _, cid := range s.dirtyCells {
		s.state[cid] = e.state[cid]
		s.cellDirty[cid] = false
	}
	s.dirtyCells = s.dirtyCells[:0]
	s.now = ck.TimePS
	s.seq = e.seqBase
	s.phase = 0
	s.running = false
	s.cellEvals = ck.Evals
	clear(s.cbs)
	s.resetFns()
	return nil
}

// MatchesCheckpoint implements Engine: it reports whether the engine's
// present state is indistinguishable from the checkpoint — same time, same
// net and sequential values, same force state, and the same queued data
// events in the same tie-break order. When true, the engine's future
// evolution is bit-identical to that of any engine resumed from the
// checkpoint, which is what lets the campaign prune a faulty run that has
// re-converged to the golden trajectory. Callbacks and the eval counter are
// observer state and are ignored.
func (s *EventSim) MatchesCheckpoint(ck *Checkpoint) bool {
	if ck == nil || ck.Kind != KindEvent || ck.ev == nil || s.now != ck.TimePS {
		return false
	}
	e := ck.ev
	if !equalV(s.cur, e.cur) || !equalV(s.driven, e.driven) ||
		!equalB(s.forced, e.forced) || !equalV(s.state, e.state) {
		return false
	}
	live := s.live[:0]
	for i := range s.evts {
		if le := &s.evts[i]; le.kind != evFunc && !s.cancelled(le) {
			live = append(live, *le)
		}
	}
	s.live = live
	if len(live) != e.numEvents() {
		return false
	}
	slices.SortFunc(live, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.phase, b.phase), cmp.Compare(a.seq, b.seq))
	})
	for i := range live {
		le, ce := &live[i], e.eventAt(i)
		if le.t != ce.t || le.kind != ce.kind || int(le.net) != ce.net || int(le.cellID) != ce.cellID || le.val != ce.val {
			return false
		}
	}
	return true
}

// Snapshot implements Engine.
func (s *LevelSim) Snapshot() *Checkpoint {
	lv := &levelCheckpoint{
		cur:       cloneV(s.cur),
		inputVal:  cloneV(s.inputVal),
		forced:    cloneB(s.forced),
		forcedVal: cloneV(s.forcedVal),
		state:     cloneV(s.state),
		prevClk:   cloneV(s.prevClk),
	}
	times := make([]uint64, 0, len(s.agenda))
	for t := range s.agenda {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		var acts []lsAction
		for _, a := range s.agenda[t] {
			if a.kind == lsFunc {
				continue
			}
			acts = append(acts, lsAction{kind: a.kind, net: a.net, cellID: a.cellID, val: a.val})
		}
		if len(acts) == 0 {
			// A step holding only callbacks belongs to the producing run's
			// observers; the restored run schedules its own.
			continue
		}
		lv.times = append(lv.times, t)
		lv.actions = append(lv.actions, acts)
	}
	return &Checkpoint{
		Kind:   KindLevel,
		TimePS: s.now,
		Evals:  s.cellEvals,
		design: s.flat.Name,
		nets:   len(s.flat.Nets),
		cells:  len(s.flat.Cells),
		lv:     lv,
	}
}

// Restore implements Engine. See EventSim.Restore for the contract.
func (s *LevelSim) Restore(ck *Checkpoint) error {
	if err := ck.check(KindLevel, s.flat); err != nil {
		return err
	}
	lv := ck.lv
	copy(s.cur, lv.cur)
	copy(s.scratch, lv.cur)
	copy(s.inputVal, lv.inputVal)
	copy(s.forced, lv.forced)
	copy(s.forcedVal, lv.forcedVal)
	copy(s.state, lv.state)
	copy(s.prevClk, lv.prevClk)
	s.now = ck.TimePS
	s.cellEvals = ck.Evals
	s.cbs = map[int][]NetCallback{}
	s.cbNets = nil
	s.agenda = make(map[uint64][]lsAction, lv.numTimes())
	for i := 0; i < lv.numTimes(); i++ {
		s.agenda[lv.timeAt(i)] = lv.sharedActionsAt(i)
	}
	s.loadTimes(lv)
	s.armDeltaTracking(ck)
	return nil
}

// loadTimes replaces the agenda-time heap with the checkpoint's times,
// reusing its backing array. They are strictly ascending, so the copy is
// already a valid heap.
func (s *LevelSim) loadTimes(lv *levelCheckpoint) {
	s.times = append(append(s.times[:0], lv.times...), lv.tailTimes...)
}

// armDeltaTracking resets the dirty sets after a full restore, making ck
// the baseline RestoreDelta rewrites against.
func (s *LevelSim) armDeltaTracking(ck *Checkpoint) {
	if s.netDirty == nil {
		s.netDirty = make([]bool, len(s.flat.Nets))
		s.cellDirty = make([]bool, len(s.flat.Cells))
		s.touchedTimes = map[uint64]struct{}{}
	}
	for _, nid := range s.dirtyNets {
		s.netDirty[nid] = false
	}
	for _, cid := range s.dirtyCells {
		s.cellDirty[cid] = false
	}
	s.dirtyNets = s.dirtyNets[:0]
	s.dirtyCells = s.dirtyCells[:0]
	clear(s.touchedTimes)
	s.consumedTimes = s.consumedTimes[:0]
	s.lastRestored = ck
}

// ckTimeIndex locates agenda time t in the checkpoint's combined time
// list, or -1 when the checkpoint holds no data actions at t.
func ckTimeIndex(lv *levelCheckpoint, t uint64) int {
	idx := sort.Search(lv.numTimes(), func(i int) bool { return lv.timeAt(i) >= t })
	if idx < lv.numTimes() && lv.timeAt(idx) == t {
		return idx
	}
	return -1
}

// RestoreDelta implements Engine. See EventSim.RestoreDelta for the
// contract; for the levelized engine the dirty sets cover the per-net and
// per-cell arrays, and the agenda is repaired in place — only times the
// run consumed or a caller appended to are re-cloned from the checkpoint,
// leaving the untouched bulk of the restored schedule alone.
func (s *LevelSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	lv := ck.lv
	for _, nid := range s.dirtyNets {
		s.cur[nid] = lv.cur[nid]
		s.scratch[nid] = lv.cur[nid]
		s.inputVal[nid] = lv.inputVal[nid]
		s.forced[nid] = lv.forced[nid]
		s.forcedVal[nid] = lv.forcedVal[nid]
		s.netDirty[nid] = false
	}
	s.dirtyNets = s.dirtyNets[:0]
	for _, cid := range s.dirtyCells {
		s.state[cid] = lv.state[cid]
		s.prevClk[cid] = lv.prevClk[cid]
		s.cellDirty[cid] = false
	}
	s.dirtyCells = s.dirtyCells[:0]
	// Agenda repair: a time the caller appended to (or the run consumed)
	// is reset to the checkpoint's action list, or removed when the
	// checkpoint holds nothing there; all other entries are still the
	// untouched clones the last full restore made.
	restoreTime := func(t uint64) {
		if i := ckTimeIndex(lv, t); i >= 0 {
			s.agenda[t] = lv.sharedActionsAt(i)
		} else {
			delete(s.agenda, t)
		}
	}
	for t := range s.touchedTimes {
		restoreTime(t)
	}
	clear(s.touchedTimes)
	for _, t := range s.consumedTimes {
		restoreTime(t)
	}
	s.consumedTimes = s.consumedTimes[:0]
	// The repaired agenda holds exactly the checkpoint's times again.
	s.loadTimes(lv)
	s.now = ck.TimePS
	s.cellEvals = ck.Evals
	clear(s.cbs)
	s.cbNets = s.cbNets[:0]
	return nil
}

// MatchesCheckpoint implements Engine. See EventSim.MatchesCheckpoint.
func (s *LevelSim) MatchesCheckpoint(ck *Checkpoint) bool {
	if ck == nil || ck.Kind != KindLevel || ck.lv == nil || s.now != ck.TimePS {
		return false
	}
	lv := ck.lv
	if !equalV(s.cur, lv.cur) || !equalV(s.inputVal, lv.inputVal) ||
		!equalB(s.forced, lv.forced) ||
		!equalV(s.state, lv.state) || !equalV(s.prevClk, lv.prevClk) {
		return false
	}
	// forcedVal is live state only while the net is forced: propagate reads
	// it only under forced[nid], and any future lsForce overwrites it before
	// the next read. Comparing it on released nets would keep a run that has
	// fully re-converged onto the golden trajectory unprunable forever after
	// a SET pulse — the value the pulse parked there is unobservable.
	for nid, f := range s.forced {
		if f && s.forcedVal[nid] != lv.forcedVal[nid] {
			return false
		}
	}
	seen := 0
	for t, acts := range s.agenda {
		data := 0
		for _, a := range acts {
			if a.kind != lsFunc {
				data++
			}
		}
		if data == 0 {
			continue
		}
		idx := ckTimeIndex(lv, t)
		if idx < 0 {
			return false
		}
		want := lv.actionsAt(idx)
		if data != len(want) {
			return false
		}
		i := 0
		for _, a := range acts {
			if a.kind == lsFunc {
				continue
			}
			w := want[i]
			if a.kind != w.kind || a.net != w.net || a.cellID != w.cellID || a.val != w.val {
				return false
			}
			i++
		}
		seen++
	}
	return seen == lv.numTimes()
}
