package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// DigestVersion is the digest-format version this package writes.
const DigestVersion = 2

// Digest is the deterministic result of replaying one trace against
// one candidate configuration: counters, conservation, per-tenant
// latency percentiles, the fault-handling decision log, and any
// repartitioning decisions. Two runs of the same trace + config render
// byte-identical digests (Canonical), so configs A/B by diffing
// digests and CI asserts reproducibility by comparing bytes.
type Digest struct {
	// Version tags the digest format.
	Version int `json:"herald_digest"`
	// Trace identifies the replayed input.
	Trace TraceInfo `json:"trace"`
	// Setup summarizes the candidate configuration.
	Setup Setup `json:"setup"`
	// Counters is the deterministic slice of the final fleet
	// statistics (wall-clock fields like uptime are excluded).
	Counters Counters `json:"counters"`
	// Conservation restates the invariant the drill gates on.
	Conservation Conservation `json:"conservation"`
	// Rejects counts submissions the dispatch layer refused, keyed by
	// reason (shed, queue-full, draining, no-replicas, client).
	Rejects map[string]int64 `json:"rejects,omitempty"`
	// Tenants aggregates each tenant across every replica, sorted by
	// tenant name; percentiles are over the merged sample windows.
	Tenants []serve.TenantStats `json:"tenants"`
	// FaultDecisions is the fleet's fault-handling decision log.
	FaultDecisions []fleet.FaultDecision `json:"fault_decisions,omitempty"`
	// Control is every control-ladder step taken during the replay.
	Control []fleet.Decision `json:"control,omitempty"`
}

// TraceInfo identifies the replayed trace.
type TraceInfo struct {
	// Note is the trace header's free-form capture note.
	Note string `json:"note,omitempty"`
	// Entries counts trace entries; FirstCycle/LastCycle span the
	// arrival horizon.
	Entries    int   `json:"entries"`
	FirstCycle int64 `json:"first_cycle"`
	LastCycle  int64 `json:"last_cycle"`
}

// Setup summarizes the replayed configuration.
type Setup struct {
	// Policy and Replicas mirror the fleet configuration; HDAs names
	// each replica's substrate in replica order.
	Policy   string   `json:"policy"`
	Replicas int      `json:"replicas"`
	HDAs     []string `json:"hdas"`
	// FusedModels lists the models with a fusion plan in
	// Fleet.Serve.Plans (sorted).
	FusedModels []string `json:"fused_models,omitempty"`
	// FaultEvents counts injected fault-plan events.
	FaultEvents int `json:"fault_events,omitempty"` //herald:jsonzero 0 means a fault-free replay; absent means the same
	// ShedSLAFactor echoes the shedding knob.
	ShedSLAFactor float64 `json:"shed_sla_factor,omitempty"` //herald:jsonzero 0 means shedding off; absent means the same
	// Window is the quiesce-window size in accepted submissions
	// (0 = the whole trace in one window).
	Window int `json:"window,omitempty"` //herald:jsonzero 0 means one window; absent means the same
	// Repartition reports whether a controller stepped at window
	// boundaries.
	Repartition bool `json:"repartition,omitempty"` //herald:jsonzero false means no controller; absent means the same
}

// Counters is the deterministic slice of fleet.Stats. Zero values are
// all meaningful (a clean run has 0 failures), so no field carries
// omitempty.
type Counters struct {
	Submitted            int64              `json:"submitted"`
	Completed            int64              `json:"completed"`
	Failed               int64              `json:"failed"`
	Rejected             int64              `json:"rejected"`
	Pending              int64              `json:"pending"`
	Shed                 int64              `json:"shed"`
	Failovers            int64              `json:"failovers"`
	Lost                 int64              `json:"lost"`
	Crashes              int64              `json:"crashes"`
	Recoveries           int64              `json:"recoveries"`
	BreakerTrips         int64              `json:"breaker_trips"`
	Migrations           int64              `json:"migrations"`
	Preemptions          int64              `json:"preemptions"`
	Resumes              int64              `json:"resumes"`
	PEReassigns          int64              `json:"pe_reassigns"`
	Generation           int                `json:"generation"`
	MakespanCycles       int64              `json:"makespan_cycles"`
	CrossReplicaHandoffs int64              `json:"cross_replica_handoffs"`
	Segments             serve.SegmentStats `json:"segments"`
}

// Conservation restates the serving invariant: every accepted request
// is completed or terminally failed, nothing pending after drain.
type Conservation struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Pending   int64 `json:"pending"`
	// Holds is Submitted == Completed + Failed && Pending == 0.
	Holds bool `json:"holds"`
}

// Canonical renders the digest's canonical byte form: indented JSON
// with sorted map keys (encoding/json sorts them) and a trailing
// newline. Byte-comparing two Canonical renderings is the digest
// equality the drill and CI gate on.
func (d *Digest) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return append(b, '\n'), nil
}

// Hash returns the SHA-256 of the canonical rendering, hex-encoded —
// a compact identity for logs and diff headers.
func (d *Digest) Hash() (string, error) {
	b, err := d.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Diff compares two digests structurally and returns one line per
// differing leaf ("path: a -> b"), empty when identical. It round-
// trips both through JSON so the comparison sees exactly what
// Canonical renders.
func Diff(a, b *Digest) ([]string, error) {
	ab, err := a.Canonical()
	if err != nil {
		return nil, err
	}
	bb, err := b.Canonical()
	if err != nil {
		return nil, err
	}
	return DiffJSON(ab, bb)
}

// DiffJSON diffs two JSON documents (digest files on disk) leaf by
// leaf; see Diff.
func DiffJSON(a, b []byte) ([]string, error) {
	var av, bv any
	if err := json.Unmarshal(a, &av); err != nil {
		return nil, fmt.Errorf("replay: left document: %w", err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		return nil, fmt.Errorf("replay: right document: %w", err)
	}
	var lines []string
	diffAny("", av, bv, &lines)
	return lines, nil
}

// render compacts a leaf value for a diff line.
func render(v any) string {
	if v == nil {
		return "<absent>"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	if len(b) > 80 {
		return string(b[:77]) + "..."
	}
	return string(b)
}

// diffAny walks two decoded JSON trees in parallel, appending one line
// per differing leaf. Keys are visited in sorted order, so the diff
// itself is deterministic.
func diffAny(path string, a, b any, out *[]string) {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	if aok && bok {
		keys := make(map[string]bool, len(am)+len(bm))
		for k := range am { //herald:nondet set insertion only; emission below iterates sorted keys
			keys[k] = true
		}
		for k := range bm { //herald:nondet set insertion only; emission below iterates sorted keys
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys { //herald:nondet collect-then-sort
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			p := k
			if path != "" {
				p = path + "." + k
			}
			diffAny(p, am[k], bm[k], out)
		}
		return
	}
	as, aok := a.([]any)
	bs, bok := b.([]any)
	if aok && bok {
		n := max(len(as), len(bs))
		for i := 0; i < n; i++ {
			var av, bv any
			if i < len(as) {
				av = as[i]
			}
			if i < len(bs) {
				bv = bs[i]
			}
			diffAny(fmt.Sprintf("%s[%d]", path, i), av, bv, out)
		}
		return
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		*out = append(*out, fmt.Sprintf("%s: %s -> %s", path, render(a), render(b)))
	}
}
