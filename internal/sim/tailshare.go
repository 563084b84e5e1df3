package sim

// ShareTails rewires an ascending-time sequence of checkpoints taken on
// one run so that adjacent snapshots share the storage of their common
// future-event suffix. At any checkpoint the bulk of the queued events is
// the not-yet-consumed pre-scheduled stimulus and clock schedule, and
// each later checkpoint's queue is (up to its own in-flight transitions)
// a suffix of the previous one's — so without sharing, golden-run
// checkpoint memory is (number of checkpoints) x (schedule length) and
// scales inversely with the checkpoint pitch. After sharing, each
// checkpoint owns only the events unique to it and aliases the shared
// suffix copy-on-write into its predecessor, so total memory is one full
// schedule plus small per-checkpoint deltas, independent of pitch.
//
// Checkpoints are immutable after creation and Restore never writes into
// them, so shared tails remain safe for concurrent restores. Pairs of
// mismatched kinds are skipped; sharing never changes restore semantics,
// only storage.
func ShareTails(cks []*Checkpoint) {
	for i := 1; i < len(cks); i++ {
		prev, cur := cks[i-1], cks[i]
		if prev == nil || cur == nil || prev.Kind != cur.Kind {
			continue
		}
		switch {
		case prev.ev != nil && cur.ev != nil:
			shareEventTail(prev.ev, cur.ev)
		case prev.lv != nil && cur.lv != nil:
			shareLevelTail(prev.lv, cur.lv)
		}
	}
}

// shareEventTail splits cur's event list into a privately owned head and
// a tail aliased into prev's storage. The shareable region of prev must
// be one contiguous slice: its own (already shared) tail when it has one,
// otherwise its full event list.
func shareEventTail(prev, cur *eventCheckpoint) {
	avail := prev.events
	if len(prev.tail) > 0 {
		avail = prev.tail
	}
	n := 0
	for n < len(avail) && n < len(cur.events) &&
		avail[len(avail)-1-n] == cur.events[len(cur.events)-1-n] {
		n++
	}
	if n == 0 {
		return
	}
	cur.tail = avail[len(avail)-n:]
	// Reallocate the head so the original full-length backing array is
	// released; this copy is the whole point of the split.
	cur.events = append([]ckptEvent(nil), cur.events[:len(cur.events)-n]...)
}

// shareLevelTail is shareEventTail for the levelized engine's parallel
// agenda-time/action lists.
func shareLevelTail(prev, cur *levelCheckpoint) {
	availT, availA := prev.times, prev.actions
	if len(prev.tailTimes) > 0 {
		availT, availA = prev.tailTimes, prev.tailActions
	}
	n := 0
	for n < len(availT) && n < len(cur.times) {
		i, j := len(availT)-1-n, len(cur.times)-1-n
		if availT[i] != cur.times[j] || !sameActions(availA[i], cur.actions[j]) {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	cur.tailTimes = availT[len(availT)-n:]
	cur.tailActions = availA[len(availA)-n:]
	cur.times = append([]uint64(nil), cur.times[:len(cur.times)-n]...)
	cur.actions = append([][]lsAction(nil), cur.actions[:len(cur.actions)-n]...)
}

// sameActions compares two snapshot action lists field-wise (snapshots
// never store function actions, so the fn field is always nil).
func sameActions(a, b []lsAction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].net != b[i].net || a[i].cellID != b[i].cellID || a[i].val != b[i].val {
			return false
		}
	}
	return true
}

// OwnedEvents reports how many queued data events (EventSim) or agenda
// time steps (LevelSim) the checkpoint stores in memory it owns, i.e.
// excluding any suffix aliased into an earlier checkpoint by ShareTails.
// It exists so callers and tests can observe checkpoint memory without
// reaching into engine internals.
func (ck *Checkpoint) OwnedEvents() int {
	switch {
	case ck == nil:
		return 0
	case ck.ev != nil:
		return len(ck.ev.events)
	case ck.lv != nil:
		return len(ck.lv.times)
	}
	return 0
}

// QueuedEvents reports the total logical queue length of the checkpoint,
// shared suffix included.
func (ck *Checkpoint) QueuedEvents() int {
	switch {
	case ck == nil:
		return 0
	case ck.ev != nil:
		return ck.ev.numEvents()
	case ck.lv != nil:
		return ck.lv.numTimes()
	}
	return 0
}
