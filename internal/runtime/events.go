package runtime

// Event firing: the scenario's tick-scheduled timeline executed on the
// wall clock. Every event is resolved into an explicit Directive (see
// directive.go) and applied — in a single-process run the two happen
// back to back here; in a multi-process run the cluster coordinator
// resolves and every shard applies the broadcast directive. Role
// changes and membership travel over the control plane; network
// conditions — latency storms, loss bursts, partitions — mutate the
// transport's LinkPolicy, which severs and shapes traffic at the
// transport level exactly where the simulator's transit phase applies
// the same Model.

// fireEvents applies every event scheduled at or before the current
// tick, in timeline order — the live counterpart of the simulator's
// events phase, running while every peer is quiescent between periods.
func (r *Runner) fireEvents() {
	for r.err == nil {
		ev, due := r.DueEvent()
		if !due {
			return
		}
		d, _, err := r.ResolveEvent(ev) // every source is owned: no stop round trip
		r.PopEvent()
		if err != nil {
			r.err = err
			return
		}
		if d == nil {
			continue // resolution-local (churn burst bounds)
		}
		if err := r.Apply(d); err != nil {
			r.err = err
			return
		}
	}
}
