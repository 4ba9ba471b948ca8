package fleet

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/serve"
)

// ReassignAll re-slices every active replica to the given partitions
// at its current layer boundary (serve.Engine.Reassign, which also
// starts the engine's cost-estimate memo afresh for the new slices).
// All replicas are validated before any is touched, so a sub-count
// mismatch on a heterogeneous fleet leaves the fleet unchanged.
// Returns the number of replicas reassigned.
func (f *Fleet) ReassignAll(parts []accel.Partition) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return 0, serve.ErrDraining
	}
	for _, r := range f.replicas {
		if subs := len(r.engine.HDA().Subs); len(parts) != subs {
			return 0, fmt.Errorf("fleet: replica %d has %d subs, reassignment has %d partitions (migrate instead)",
				r.id, subs, len(parts))
		}
	}
	n := 0
	for _, r := range f.replicas {
		if err := r.engine.Reassign(parts); err != nil {
			return n, fmt.Errorf("fleet: replica %d: %w", r.id, err)
		}
		n++
	}
	return n, nil
}

// PreemptBelow preempts up to maxPerReplica requests with priority
// strictly below the threshold on every active replica (see
// serve.Engine.Preempt) and returns the total preempted. Engines
// without serve.Options.Elastic preempt nothing.
func (f *Fleet) PreemptBelow(priority, maxPerReplica int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range f.replicas {
		n += r.engine.Preempt(priority, maxPerReplica)
	}
	return n
}
