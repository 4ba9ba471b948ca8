package fleet

import (
	"encoding/json"
	"testing"
)

// requireKeys marshals v and fails if any of the listed JSON keys is
// absent — the regression the jsonzero analyzer guards against:
// omitempty on a numeric or bool field silently drops the zero value,
// making "counter is 0" indistinguishable from "field not reported".
func requireKeys(t *testing.T, v any, keys ...string) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Errorf("%T: zero-valued field %q missing from JSON %s", v, k, raw)
		}
	}
}

// TestZeroValuedStatsFieldsSurviveJSON pins the jsonzero triage for
// this package: every counter and flag below is meaningful at zero
// and must round-trip through JSON even when zero. Stats lists every
// key /v1/fleet/stats renders, so a slip in the embedded Counters or
// its tags cannot drop one.
func TestZeroValuedStatsFieldsSurviveJSON(t *testing.T) {
	requireKeys(t, Stats{},
		"policy", "replicas", "uptime_seconds", "generation", "migrations", "retired_replicas",
		"submitted", "completed", "failed", "rejected", "pending",
		"shed", "failovers", "lost", "crashes", "recoveries", "breaker_trips", "failed_replicas",
		"preemptions", "resumes", "pe_reassigns", "makespan_cycles", "sim_throughput_rps",
		"segments", "cross_replica_handoffs", "tenants", "per_replica")
	requireKeys(t, ReplicaStats{},
		"retiring", "consecutive_failures", "pending_admit_faults", "dispatched", "inflight",
		"horizon_cycles")
	requireKeys(t, Decision{},
		"generation", "serving_value", "winner_value", "improvement",
		"preempted", "reassigned", "streak", "cooldown_left", "explored", "pruned")
	requireKeys(t, ControllerStatus{},
		"steps", "preemptions", "reassigns", "migrations", "pe_quantum",
		"streak", "cooldown_left")
}
