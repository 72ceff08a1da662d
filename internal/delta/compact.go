package delta

import "time"

// maybeCompact fires the size trigger after an applied batch.
func (o *Overlay) maybeCompact() {
	if o.opts.CompactOps > 0 && o.pending >= o.opts.CompactOps {
		_ = o.rebase() // a failed rebase leaves the view serving; the next batch retries
	}
}

// rebase folds the delta away: the published view becomes the base. Its
// snapshot already is what a compile of the merged content would build
// (TestFreezeMatchesCompile pins that byte for byte), so there is nothing to
// compile and, the reconciler being the only writer, nothing to replay.
// Content, canonical IDs, slots and the live labelling carry over verbatim;
// the epoch bumps exactly once. With nothing pending it is a no-op:
// republishing an identical base would only churn epochs. An error (the view
// breaking the invariant indexGroups checks, which freeze never emits) leaves
// the overlay as it was.
func (o *Overlay) rebase() error {
	if o.pending == 0 {
		return nil
	}
	start := time.Now()
	cur := o.cur.Load()
	keys, groups, err := indexGroups(cur.sn)
	if err != nil {
		return err
	}
	o.base, o.baseSlots = cur.sn, cur.idToSlot
	o.baseKeys, o.baseGroups = keys, groups
	clear(o.adopted)
	o.adopted = o.adopted[:0]
	o.lastAdj, o.adjMoved = nil, false // the base's adjacency is the view's
	o.pending = 0

	epoch := o.bumpEpoch()
	o.cur.Store(&Current{Graph: cur.sn, Epoch: epoch, Points: cur.Points, idToSlot: cur.idToSlot, live: cur.live, sn: cur.sn})

	pause := time.Since(start).Nanoseconds()
	o.stats.pauseNs.Store(pause)
	if pause > o.stats.maxPauseNs.Load() {
		o.stats.maxPauseNs.Store(pause)
	}
	o.stats.compactions.Add(1)
	o.stats.pendingOps.Store(0)
	o.stats.adopted.Store(0)
	return nil
}

// CompactNow compacts and waits for it: the current view becomes the base
// and publishes with one epoch bump. A no-op (nil) when nothing is pending.
// Tests and the hammer harness use it to exercise rebases deterministically.
func (o *Overlay) CompactNow() error {
	done := make(chan error, 1)
	select {
	case o.forceCh <- done:
	case <-o.closed:
		return ErrClosed
	}
	return <-done
}
