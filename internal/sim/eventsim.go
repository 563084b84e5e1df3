package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// EventSim is the event-driven engine: only the fanout cone of a changed
// net is re-evaluated, and combinational outputs propagate with the cell's
// inertial delay (glitches shorter than the delay are swallowed, which is
// exactly the filtering SET pulses are subject to in real logic).
type EventSim struct {
	flat *netlist.Flat
	now  uint64
	seq  uint64 // tie-breaker for deterministic event order
	// phase is the coarse tie-breaker ahead of seq: it increments at every
	// Run entry, so events scheduled before a run (stimulus, fault actions,
	// monitors) order ahead of events the run creates dynamically at the
	// same timestamp. For an engine driven the ordinary way phase order
	// coincides with seq order and changes nothing; after Restore it is
	// what lets freshly registered pre-run events slot in ahead of restored
	// in-flight transitions, reproducing a cold run's tie-breaking exactly.
	phase   uint32
	running bool
	evts    eventHeap
	fns     []func() // At callbacks, indexed by event.fn; nil once run

	cur    []logic.V // present value of each net
	driven []logic.V // value the driver wants (differs from cur under force)
	forced []bool

	state []logic.V // per-cell sequential state (X for comb cells)

	// pendSeq and pendVal tag each net's pending inertial transition as
	// (seq+1, value); pendSeq is 0 when none is in flight. An evNet event
	// whose seq+1 no longer matches its net's tag was cancelled, so
	// cancelling is a store into pendSeq.
	pendSeq []uint64
	pendVal []logic.V

	cbs       map[int][]NetCallback
	cellEvals uint64

	// Per-eval scratch: a cell's gathered inputs and computed outputs.
	in, out []logic.V

	// Delta-restore tracking, active once the engine has restored a
	// checkpoint: every net or cell mutated since the last restore is
	// recorded exactly once, so RestoreDelta can rewrite only those
	// entries. live is MatchesCheckpoint's reusable scratch.
	lastRestored *Checkpoint
	netDirty     []bool
	cellDirty    []bool
	dirtyNets    []int32
	dirtyCells   []int32
	live         []event
}

type evKind uint8

const (
	evNet   evKind = iota // driver-produced net transition (inertial)
	evInput               // primary input change
	evForce
	evRelease
	evFlip
	evFunc
)

// event is one queued action, held by value in the heap; it holds no
// pointers, so the queue costs the garbage collector nothing.
type event struct {
	t      uint64
	seq    uint64
	phase  uint32
	net    int32
	cellID int32
	fn     int32 // index into EventSim.fns for evFunc
	kind   evKind
	val    logic.V
	// free marks an evNet transition that is not (or no longer) its net's
	// tagged pending transition and so cannot be cancelled: the t=0
	// seeding of tie cells and zero-initialized storage, a restored event
	// the checkpoint did not list as pending, or a transition orphaned
	// when such an event fired first and cleared the net's tag.
	free bool
}

// before is the queue order: time, then phase, then sequence number.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under before.
type eventHeap []event

func (h eventHeap) up(j int) {
	e := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = e
}

func (h eventHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// NewEventSim returns an event-driven engine with all nets and states at X.
func NewEventSim(f *netlist.Flat) *EventSim {
	s := &EventSim{
		flat:    f,
		cur:     make([]logic.V, len(f.Nets)),
		driven:  make([]logic.V, len(f.Nets)),
		forced:  make([]bool, len(f.Nets)),
		state:   make([]logic.V, len(f.Cells)),
		pendSeq: make([]uint64, len(f.Nets)),
		pendVal: make([]logic.V, len(f.Nets)),
		cbs:     map[int][]NetCallback{},
	}
	s.in, s.out = pinBuffers(f)
	for i := range s.cur {
		s.cur[i] = logic.X
		s.driven[i] = logic.X
	}
	for i := range s.state {
		s.state[i] = logic.X
	}
	// The t=0 seeding transitions below are free: they are not their
	// nets' pending transitions, so nothing scheduled before they fire
	// cancels them.
	for _, c := range f.Cells {
		switch {
		case !c.Def.IsSequential() && len(c.Def.Inputs) == 0:
			// Tie cells have no inputs and never receive a triggering
			// event; seed their constant outputs at time zero.
			out := s.out[:len(c.Out)]
			c.Def.Eval(nil, out)
			for i, nid := range c.Out {
				s.schedule(event{kind: evNet, net: int32(nid), val: out[i], free: true})
			}
		case initZeroState(c):
			// Storage without an asynchronous control (memory bits,
			// enable flops) initializes to 0, mirroring the standard
			// register-initialization practice of fault-injection flows
			// (VCS +vcs+initreg+0): campaigns need a fully defined golden
			// reference, and X-circulating feedback loops would otherwise
			// mask most upsets.
			s.state[c.ID] = logic.L0
			out := s.out[:len(c.Out)]
			c.Def.StateOutputs(logic.L0, out)
			for i, nid := range c.Out {
				s.schedule(event{kind: evNet, net: int32(nid), val: out[i], free: true})
			}
		}
	}
	return s
}

// initZeroState reports whether the cell's power-on state is initialized
// to zero rather than X: storage with no asynchronous reset/set path.
func initZeroState(c *netlist.FlatCell) bool {
	return c.Def.IsSequential() &&
		c.Def.Seq.AsyncResetN == "" && c.Def.Seq.AsyncSetN == ""
}

// Name implements Engine.
func (s *EventSim) Name() string { return string(KindEvent) }

// Flat implements Engine.
func (s *EventSim) Flat() *netlist.Flat { return s.flat }

// Now implements Engine.
func (s *EventSim) Now() uint64 { return s.now }

// Value implements Engine.
func (s *EventSim) Value(net int) logic.V { return s.cur[net] }

// State implements Engine.
func (s *EventSim) State(cellID int) (logic.V, error) {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return logic.X, err
	}
	return s.state[cellID], nil
}

// CellEvals implements Engine.
func (s *EventSim) CellEvals() uint64 { return s.cellEvals }

func (s *EventSim) schedule(e event) {
	e.seq = s.seq
	e.phase = s.phase
	s.seq++
	s.evts.push(e)
}

// cancelled reports whether an evNet event lost its net's pending tag to
// a later transition (or to the cancellation that restored the driven
// value). Free events are never cancelled.
func (s *EventSim) cancelled(e *event) bool {
	return e.kind == evNet && !e.free && s.pendSeq[e.net] != e.seq+1
}

// touchNet records that a net's simulation state (value, driver, force or
// pending transition) mutated since the last restore. A no-op until the
// engine first restores a checkpoint.
func (s *EventSim) touchNet(nid int) {
	if s.lastRestored != nil && !s.netDirty[nid] {
		s.netDirty[nid] = true
		s.dirtyNets = append(s.dirtyNets, int32(nid))
	}
}

// touchCell records a sequential-state mutation since the last restore.
func (s *EventSim) touchCell(cid int) {
	if s.lastRestored != nil && !s.cellDirty[cid] {
		s.cellDirty[cid] = true
		s.dirtyCells = append(s.dirtyCells, int32(cid))
	}
}

// ScheduleInput implements Engine.
func (s *EventSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.schedule(event{t: t, kind: evInput, net: int32(net), val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *EventSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.schedule(event{t: t, kind: evForce, net: int32(net), val: v})
}

// ScheduleRelease implements Engine.
func (s *EventSim) ScheduleRelease(t uint64, net int) {
	s.schedule(event{t: t, kind: evRelease, net: int32(net)})
}

// ScheduleFlip implements Engine.
func (s *EventSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.schedule(event{t: t, kind: evFlip, cellID: int32(cellID)})
	return nil
}

// At implements Engine.
func (s *EventSim) At(t uint64, fn func()) {
	s.fns = append(s.fns, fn)
	s.schedule(event{t: t, kind: evFunc, fn: int32(len(s.fns) - 1)})
}

// OnNetChange implements Engine.
func (s *EventSim) OnNetChange(net int, fn NetCallback) {
	s.cbs[net] = append(s.cbs[net], fn)
}

// FlipState implements Engine.
func (s *EventSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.applyFlip(cellID)
	return nil
}

// applyFlip corrupts the storage node directly: outputs follow with the
// cell's propagation delay, as in the paper's SEU model (Fig. 2).
func (s *EventSim) applyFlip(cellID int) {
	s.touchCell(cellID)
	s.state[cellID] = s.state[cellID].Not()
	s.pushSeqOutputs(s.flat.Cells[cellID])
}

// Run implements Engine.
func (s *EventSim) Run(until uint64) error {
	s.phase++
	s.running = true
	defer func() { s.running = false }()
	for len(s.evts) > 0 && s.evts[0].t <= until {
		e := s.evts.pop()
		if s.cancelled(&e) {
			continue
		}
		if e.t < s.now {
			return fmt.Errorf("sim: event time %d before now %d", e.t, s.now)
		}
		s.now = e.t
		net := int(e.net)
		switch e.kind {
		case evNet:
			s.touchNet(net)
			if tag := s.pendSeq[net]; tag != 0 && tag != e.seq+1 {
				s.orphanPending(net)
			}
			s.pendSeq[net] = 0
			s.driven[net] = e.val
			if !s.forced[net] {
				s.setNet(net, e.val)
			}
		case evInput:
			s.touchNet(net)
			s.driven[net] = e.val
			if !s.forced[net] {
				s.setNet(net, e.val)
			}
		case evForce:
			s.touchNet(net)
			s.forced[net] = true
			s.setNet(net, e.val)
		case evRelease:
			if s.forced[net] {
				s.touchNet(net)
				s.forced[net] = false
				s.setNet(net, s.driven[net])
			}
		case evFlip:
			s.applyFlip(int(e.cellID))
		case evFunc:
			fn := s.fns[e.fn]
			s.fns[e.fn] = nil
			fn()
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// orphanPending frees the net's pending transition when a free event on
// the same net fires first: firing clears the net's tag, and the
// transition still in flight stays live without being cancellable. Only
// free events get here, and they occur at t=0 seeding (or in checkpoints
// taken before it ran), so the linear scan is off the hot path.
func (s *EventSim) orphanPending(net int) {
	tag := s.pendSeq[net]
	for i := range s.evts {
		if e := &s.evts[i]; e.kind == evNet && int(e.net) == net && !e.free && e.seq+1 == tag {
			e.free = true
			return
		}
	}
}

// setNet commits a value change and triggers fanout evaluation.
func (s *EventSim) setNet(nid int, v logic.V) {
	old := s.cur[nid]
	if old == v {
		return
	}
	s.cur[nid] = v
	for _, fn := range s.cbs[nid] {
		fn(s.now, v)
	}
	for _, fo := range s.flat.Nets[nid].Fanout {
		s.evalCell(fo.Cell, fo.Pin, old, v)
	}
}

// evalCell reacts to a change on input pin `pin` of cell `cid`.
func (s *EventSim) evalCell(cid, pin int, old, new logic.V) {
	s.cellEvals++
	c := s.flat.Cells[cid]
	def := c.Def
	in := s.in[:len(c.In)]
	for i, nid := range c.In {
		in[i] = s.cur[nid]
	}
	if !def.IsSequential() {
		out := s.out[:len(c.Out)]
		def.Eval(in, out)
		for i, nid := range c.Out {
			s.scheduleCombOutput(nid, out[i], def.DelayPS)
		}
		return
	}
	// Asynchronous controls dominate and act on any input change.
	if v, active := def.AsyncState(in); active {
		if s.state[cid] != v {
			s.touchCell(cid)
			s.state[cid] = v
			s.pushSeqOutputs(c)
		}
		return
	}
	// A rising edge on the clock pin captures.
	clkPin := def.ClockPin()
	if pin == clkPin && old == logic.L0 && new == logic.L1 {
		next := def.NextState(s.state[cid], in)
		if next != s.state[cid] {
			s.touchCell(cid)
			s.state[cid] = next
			s.pushSeqOutputs(c)
		}
		return
	}
	// An unknown clock transition poisons the state, mirroring Verilog
	// pessimism for x-edges, but only when the data would change the state.
	if pin == clkPin && old == logic.L0 && !new.IsKnown() {
		next := def.NextState(s.state[cid], in)
		if next != s.state[cid] {
			s.touchCell(cid)
			s.state[cid] = logic.X
			s.pushSeqOutputs(c)
		}
	}
}

// pushSeqOutputs schedules a sequential cell's outputs for its present
// state; they follow the same inertial rule as combinational outputs.
func (s *EventSim) pushSeqOutputs(c *netlist.FlatCell) {
	out := s.out[:len(c.Out)]
	c.Def.StateOutputs(s.state[c.ID], out)
	for i, nid := range c.Out {
		s.scheduleCombOutput(nid, out[i], c.Def.DelayPS)
	}
}

// scheduleCombOutput implements the inertial rule for a driver that now
// wants value v on net nid after delay d: a newly computed value replaces
// any in-flight transition on the same net.
func (s *EventSim) scheduleCombOutput(nid int, v logic.V, d int64) {
	if s.pendSeq[nid] != 0 {
		if s.pendVal[nid] == v {
			return // in-flight transition already produces v
		}
		s.pendSeq[nid] = 0 // cancels the in-flight transition
		s.touchNet(nid)
		if v == s.driven[nid] {
			return // cancellation restored the present driven value
		}
	} else if v == s.driven[nid] {
		return
	}
	s.pendSeq[nid] = s.seq + 1
	s.pendVal[nid] = v
	s.touchNet(nid)
	s.schedule(event{t: s.now + uint64(d), kind: evNet, net: int32(nid), val: v})
}
