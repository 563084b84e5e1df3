package sim

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// LevelSim is the levelized oblivious engine: at every scheduled time step
// it re-evaluates the entire combinational network in topological rank
// order, then performs a two-phase flip-flop update on detected clock
// edges. Zero delta delay inside a step gives clean cycle semantics; the
// cost is that every step touches every gate, which is why this engine is
// the slower baseline of the runtime comparison (the paper's OSS-CVC role).
type LevelSim struct {
	flat *netlist.Flat
	now  uint64

	agenda map[uint64][]lsAction
	times  timeHeap

	cur       []logic.V // committed net values (end of previous step)
	scratch   []logic.V // working values during settle
	inputVal  []logic.V // externally driven PI values
	forced    []bool
	forcedVal []logic.V

	state   []logic.V
	prevClk []logic.V // per sequential cell: clock net value at end of last step

	combOrder []int // combinational cell IDs in ascending level order
	seqCells  []int

	cbs       map[int][]NetCallback
	cbNets    []int // nets having callbacks, sorted, for deterministic firing
	cellEvals uint64

	// Per-step scratch, so a step allocates nothing: a cell's gathered
	// inputs and computed outputs, the step's callbacks, the phase-1
	// captures and the committed nets that have callbacks.
	in, out []logic.V
	fns     []func()
	caps    []capture
	changed []int

	// Delta-restore tracking, active once the engine has restored a
	// checkpoint: dirty nets/cells are the per-net and per-cell state
	// mutated since the last restore; touchedTimes are agenda times
	// appended to since (caller monitors, fault actions), consumedTimes
	// the times Run popped. RestoreDelta rewrites exactly these.
	lastRestored  *Checkpoint
	netDirty      []bool
	cellDirty     []bool
	dirtyNets     []int32
	dirtyCells    []int32
	touchedTimes  map[uint64]struct{}
	consumedTimes []uint64
}

type lsKind uint8

const (
	lsInput lsKind = iota
	lsForce
	lsRelease
	lsFlip
	lsFunc
)

type lsAction struct {
	kind   lsKind
	net    int
	cellID int
	val    logic.V
	fn     func()
}

// capture is a phase-1 flip-flop update: the cell and its next state.
type capture struct {
	cell int
	next logic.V
}

// timeHeap is a binary min-heap of agenda times.
type timeHeap []uint64

func (h timeHeap) up(j int) {
	t := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if t >= h[p] {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = t
}

func (h timeHeap) down(i int) {
	n := len(h)
	t := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[c] >= t {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
}

func (h *timeHeap) push(t uint64) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

func (h *timeHeap) pop() uint64 {
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

// NewLevelSim returns a levelized engine with all nets and states at X.
func NewLevelSim(f *netlist.Flat) *LevelSim {
	s := &LevelSim{
		flat:      f,
		agenda:    map[uint64][]lsAction{},
		cur:       make([]logic.V, len(f.Nets)),
		scratch:   make([]logic.V, len(f.Nets)),
		inputVal:  make([]logic.V, len(f.Nets)),
		forced:    make([]bool, len(f.Nets)),
		forcedVal: make([]logic.V, len(f.Nets)),
		state:     make([]logic.V, len(f.Cells)),
		prevClk:   make([]logic.V, len(f.Cells)),
		cbs:       map[int][]NetCallback{},
	}
	s.in, s.out = pinBuffers(f)
	for i := range s.cur {
		s.cur[i] = logic.X
		s.inputVal[i] = logic.X
	}
	for i := range s.state {
		s.state[i] = logic.X
		s.prevClk[i] = logic.X
	}
	// Same register-initialization policy as EventSim (see initZeroState):
	// un-resettable storage powers up at 0.
	for _, c := range f.Cells {
		if initZeroState(c) {
			s.state[c.ID] = logic.L0
		}
	}
	s.combOrder = append(s.combOrder, f.CombinationalCells()...)
	sort.SliceStable(s.combOrder, func(i, j int) bool {
		a, b := f.Cells[s.combOrder[i]], f.Cells[s.combOrder[j]]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.ID < b.ID
	})
	s.seqCells = f.SequentialCells()
	return s
}

// Name implements Engine.
func (s *LevelSim) Name() string { return string(KindLevel) }

// Flat implements Engine.
func (s *LevelSim) Flat() *netlist.Flat { return s.flat }

// Now implements Engine.
func (s *LevelSim) Now() uint64 { return s.now }

// Value implements Engine.
func (s *LevelSim) Value(net int) logic.V { return s.cur[net] }

// State implements Engine.
func (s *LevelSim) State(cellID int) (logic.V, error) {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return logic.X, err
	}
	return s.state[cellID], nil
}

// CellEvals implements Engine.
func (s *LevelSim) CellEvals() uint64 { return s.cellEvals }

func (s *LevelSim) at(t uint64, a lsAction) {
	if _, ok := s.agenda[t]; !ok {
		s.times.push(t)
	}
	s.agenda[t] = append(s.agenda[t], a)
	if s.lastRestored != nil {
		s.touchedTimes[t] = struct{}{}
	}
}

// touchNet records a per-net state mutation since the last restore. A
// no-op until the engine first restores a checkpoint.
func (s *LevelSim) touchNet(nid int) {
	if s.lastRestored != nil && !s.netDirty[nid] {
		s.netDirty[nid] = true
		s.dirtyNets = append(s.dirtyNets, int32(nid))
	}
}

// touchCell records a per-cell (state or prevClk) mutation since the last
// restore.
func (s *LevelSim) touchCell(cid int) {
	if s.lastRestored != nil && !s.cellDirty[cid] {
		s.cellDirty[cid] = true
		s.dirtyCells = append(s.dirtyCells, int32(cid))
	}
}

// ScheduleInput implements Engine.
func (s *LevelSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.at(t, lsAction{kind: lsInput, net: net, val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *LevelSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.at(t, lsAction{kind: lsForce, net: net, val: v})
}

// ScheduleRelease implements Engine.
func (s *LevelSim) ScheduleRelease(t uint64, net int) {
	s.at(t, lsAction{kind: lsRelease, net: net})
}

// ScheduleFlip implements Engine.
func (s *LevelSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.at(t, lsAction{kind: lsFlip, cellID: cellID})
	return nil
}

// At implements Engine. The callback runs after the time step settles, so
// values read inside fn are the stable values at t.
func (s *LevelSim) At(t uint64, fn func()) {
	s.at(t, lsAction{kind: lsFunc, fn: fn})
}

// OnNetChange implements Engine.
func (s *LevelSim) OnNetChange(net int, fn NetCallback) {
	if _, ok := s.cbs[net]; !ok {
		s.cbNets = append(s.cbNets, net)
		sort.Ints(s.cbNets)
	}
	s.cbs[net] = append(s.cbs[net], fn)
}

// FlipState implements Engine.
func (s *LevelSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.touchCell(cellID)
	s.state[cellID] = s.state[cellID].Not()
	s.settleAndCommit()
	return nil
}

// Run implements Engine.
func (s *LevelSim) Run(until uint64) error {
	for len(s.times) > 0 && s.times[0] <= until {
		t := s.times.pop()
		actions := s.agenda[t]
		delete(s.agenda, t)
		if t < s.now {
			return fmt.Errorf("sim: step time %d before now %d", t, s.now)
		}
		if s.lastRestored != nil {
			s.consumedTimes = append(s.consumedTimes, t)
		}
		s.now = t
		for _, a := range actions {
			switch a.kind {
			case lsInput:
				s.touchNet(a.net)
				s.inputVal[a.net] = a.val
			case lsForce:
				s.touchNet(a.net)
				s.forced[a.net] = true
				s.forcedVal[a.net] = a.val
			case lsRelease:
				s.touchNet(a.net)
				s.forced[a.net] = false
			case lsFlip:
				s.touchCell(a.cellID)
				s.state[a.cellID] = s.state[a.cellID].Not()
			case lsFunc:
				s.fns = append(s.fns, a.fn)
			}
		}
		if err := s.settleAndCommit(); err != nil {
			return err
		}
		// The buffer is taken while its callbacks run, so one that
		// re-enters the engine cannot overwrite it.
		fns := s.fns
		s.fns = nil
		for _, fn := range fns {
			fn()
		}
		clear(fns)
		s.fns = fns[:0]
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// settleAndCommit propagates the network to a fixed point, performing
// two-phase flip-flop captures on rising clock edges, then commits values
// and fires change callbacks.
func (s *LevelSim) settleAndCommit() error {
	const maxPasses = 8
	copy(s.scratch, s.cur)
	for pass := 0; ; pass++ {
		if pass >= maxPasses {
			return fmt.Errorf("sim: LevelSim did not settle after %d passes (oscillating gated clock?)", maxPasses)
		}
		s.propagate()
		// Phase 1: detect rising edges and compute next states from the
		// settled pre-update values.
		caps := s.caps[:0]
		for _, cid := range s.seqCells {
			c := s.flat.Cells[cid]
			clkNow := s.scratch[c.In[c.Def.ClockPin()]]
			in := s.in[:len(c.In)]
			for i, nid := range c.In {
				in[i] = s.scratch[nid]
			}
			if v, active := c.Def.AsyncState(in); active {
				if s.state[cid] != v {
					caps = append(caps, capture{cell: cid, next: v})
				}
			} else if s.prevClk[cid] == logic.L0 && clkNow == logic.L1 {
				next := c.Def.NextState(s.state[cid], in)
				if next != s.state[cid] {
					caps = append(caps, capture{cell: cid, next: next})
				}
			}
			if s.prevClk[cid] != clkNow {
				s.touchCell(cid)
				s.prevClk[cid] = clkNow
			}
		}
		s.caps = caps
		if len(caps) == 0 {
			break
		}
		// Phase 2: commit all captures simultaneously, then re-propagate.
		for _, cp := range caps {
			s.touchCell(cp.cell)
			s.state[cp.cell] = cp.next
		}
	}
	// Commit and fire callbacks deterministically: changed is ascending
	// by construction.
	changed := s.changed[:0]
	for nid := range s.cur {
		if s.cur[nid] != s.scratch[nid] {
			s.touchNet(nid)
			s.cur[nid] = s.scratch[nid]
			if _, ok := s.cbs[nid]; ok {
				changed = append(changed, nid)
			}
		}
	}
	// As with Run's callbacks, the buffer is taken while they fire: a
	// callback that flips state re-enters settleAndCommit.
	s.changed = nil
	for _, nid := range changed {
		for _, fn := range s.cbs[nid] {
			fn(s.now, s.cur[nid])
		}
	}
	s.changed = changed[:0]
	return nil
}

// propagate evaluates sources and the full combinational network into
// scratch, applying force overrides as values are produced. Like classic
// oblivious simulators, it sweeps the rank order repeatedly until a sweep
// confirms the network has reached a fixpoint: with force/release pinning
// arbitrary internal nets mid-cone, a single rank-order pass is not
// sufficient in general, so every step pays at least one confirmation
// sweep — the structural reason this engine is the slower baseline.
func (s *LevelSim) propagate() {
	set := func(nid int, v logic.V) bool {
		if s.forced[nid] {
			v = s.forcedVal[nid]
		}
		changed := s.scratch[nid] != v
		s.scratch[nid] = v
		return changed
	}
	for _, nid := range s.flat.PIs {
		set(nid, s.inputVal[nid])
	}
	for _, cid := range s.seqCells {
		c := s.flat.Cells[cid]
		out := s.out[:len(c.Out)]
		c.Def.StateOutputs(s.state[cid], out)
		for i, nid := range c.Out {
			set(nid, out[i])
		}
	}
	const maxSweeps = 16
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, cid := range s.combOrder {
			s.cellEvals++
			c := s.flat.Cells[cid]
			in, out := s.in[:len(c.In)], s.out[:len(c.Out)]
			for i, nid := range c.In {
				in[i] = s.scratch[nid]
			}
			c.Def.Eval(in, out)
			for i, nid := range c.Out {
				if set(nid, out[i]) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Forced nets with no driver still need the forced value applied.
	for nid, f := range s.forced {
		if f {
			s.scratch[nid] = s.forcedVal[nid]
		}
	}
}
