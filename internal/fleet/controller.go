package fleet

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/dse"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Action is the outcome of one controller step.
type Action string

// Controller step outcomes.
const (
	// ActionNoTraffic: nothing observed since the last mix reset, so
	// there is no mix to probe.
	ActionNoTraffic Action = "no-traffic"
	// ActionHold: no rung acted — no neighbor partition clears the
	// reassign threshold and the sweep winner is already serving, is
	// below the threshold, or (with reassignment armed) is reachable by
	// re-slicing.
	ActionHold Action = "hold"
	// ActionPreempted: new SLA violations since the previous step
	// preempted low-priority work (rung 1).
	ActionPreempted Action = "preempted"
	// ActionReassigned: every active replica's slices were re-sized in
	// place (rung 2: cheap intra-HDA move, no generation change).
	ActionReassigned Action = "reassigned"
	// ActionConfirming: the winner beats the threshold but has not yet
	// persisted for Confirm consecutive probes (hysteresis).
	ActionConfirming Action = "confirming"
	// ActionCooldown: a winner beats the threshold but the controller
	// is inside the post-migration cooldown and will not act.
	ActionCooldown Action = "cooldown"
	// ActionMigrated: the fleet live-migrated to the winning partition
	// (rung 3).
	ActionMigrated Action = "migrated"
)

// ControllerOptions tunes the control ladder. The zero value arms
// only the migration rung, with its defaults; PEQuantum and
// PreemptBelow arm the cheaper rungs below it.
type ControllerOptions struct {
	// PreemptBelow, when > 0, arms rung 1, the SLA-risk trigger: a step
	// that observes new SLA violations since the previous step preempts
	// up to PreemptMax requests with priority strictly below
	// PreemptBelow on each replica. The engines must run with
	// serve.Options.Elastic set.
	PreemptBelow int

	// PreemptMax caps preemptions per replica per step. 0 selects the
	// default 2.
	PreemptMax int

	// PEQuantum, when > 0, arms rung 2: each step evaluates every
	// partition that moves PEQuantum PEs between two sub-accelerators
	// (bandwidth moves proportionally, keeping the Definition 1 sums
	// exact) and re-slices every active replica in place to the best
	// one when it clears ReassignThreshold.
	PEQuantum int

	// ReassignThreshold is the minimum fractional objective improvement
	// a neighbor partition must offer over the serving partition to
	// trigger a reassignment. 0 selects the default 0.02 — lower than
	// Threshold, because a reassignment is cheap: committed layers
	// finish untouched and no generation drains.
	ReassignThreshold float64

	// Threshold is the minimum fractional objective improvement the
	// sweep winner must offer over the serving partition to be a
	// migration candidate: 0.05 means "at least 5% better" (under the
	// sweeper's objective — EDP, latency or energy). 0 selects the
	// default 0.05; to migrate on any improvement at all, set a tiny
	// positive value (e.g. 1e-9).
	Threshold float64

	// Confirm is how many consecutive probes must agree on the same
	// winning partition (each beating the threshold) before the
	// controller migrates. Values above 1 are the hysteresis that
	// keeps a noisy mix from triggering a migration off one probe.
	// 0 selects the default 2.
	Confirm int

	// Cooldown is how many probes after a migration are observation
	// only: candidates are reported (ActionCooldown) but never acted
	// on, and they accumulate no confirmation streak. Together with
	// Confirm this bounds the worst-case flap rate to one migration
	// per Cooldown+Confirm probes. 0 selects the default 3; negative
	// disables the cooldown entirely.
	Cooldown int

	// Logf, when set, receives one line per step (Run also uses it).
	Logf func(format string, args ...any)
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.PreemptMax <= 0 {
		o.PreemptMax = 2
	}
	if o.ReassignThreshold == 0 {
		o.ReassignThreshold = 0.02
	}
	if o.Threshold == 0 {
		o.Threshold = 0.05
	}
	if o.Confirm <= 0 {
		o.Confirm = 2
	}
	switch {
	case o.Cooldown == 0:
		o.Cooldown = 3
	case o.Cooldown < 0:
		o.Cooldown = 0
	}
	return o
}

// ElasticOptions is the former name of ControllerOptions.
//
// Deprecated: kept only because the benchmark harness in bench/
// compiles against it; use ControllerOptions.
type ElasticOptions = ControllerOptions

// Decision records one controller step: what the probe saw and what
// the ladder did about it.
type Decision struct {
	Step   int    `json:"step"`
	Action Action `json:"action"`
	// Generation is the fleet generation after the step (it changes
	// only on a migration).
	Generation int `json:"generation"`

	// Mix is the probed workload (model×batches), empty under
	// ActionNoTraffic and ActionPreempted.
	Mix string `json:"mix,omitempty"`

	// Serving/Winner describe the comparison of the last rung that ran:
	// the best active partition's objective value on the mix vs. the
	// best one-quantum neighbor's (rung 2: on a reassignment, or on a
	// hold without a sweeper) or the sweep winner's (rung 3).
	// ServingValue and WinnerValue must not carry omitempty: an
	// objective value of exactly 0 is a legitimate reading, and a
	// client watching decisions cannot distinguish a dropped field
	// from "no comparison ran" without it.
	ServingHDA   string  `json:"serving_hda,omitempty"`
	WinnerHDA    string  `json:"winner_hda,omitempty"`
	Objective    string  `json:"objective,omitempty"`
	ServingValue float64 `json:"serving_value"`
	WinnerValue  float64 `json:"winner_value"`
	// Improvement is the winner's fractional gain over the serving
	// partition ((serving-winner)/serving); negative means the
	// serving partition is better.
	Improvement float64 `json:"improvement"`

	// Preempted counts requests preempted this step; Reassigned counts
	// replicas re-sliced this step.
	Preempted  int `json:"preempted"`
	Reassigned int `json:"reassigned"`

	// Streak / CooldownLeft expose the hysteresis state after the
	// step. No omitempty: streak 0 ("no candidate") and cooldown 0
	// ("free to act") are meaningful states a dashboard must see.
	Streak       int `json:"streak"`
	CooldownLeft int `json:"cooldown_left"`

	// Explored/Pruned are the probe sweep's coverage counters. A
	// pruned probe's Explored is the partitions whose objective bound
	// is at or below the winner's value, so both are deterministic and
	// replay-stable.
	Explored int `json:"explored"`
	Pruned   int `json:"pruned"`
}

// String renders the decision as a one-line log entry.
func (d Decision) String() string {
	switch d.Action {
	case ActionNoTraffic:
		return fmt.Sprintf("repartition step %d: no traffic observed yet", d.Step)
	case ActionPreempted:
		return fmt.Sprintf("repartition step %d: PREEMPTED %d low-priority requests on new SLA violations (gen %d)",
			d.Step, d.Preempted, d.Generation)
	case ActionReassigned:
		return fmt.Sprintf("repartition step %d: REASSIGNED %d replicas to %s: %s %.4g -> %.4g on %s (%+.1f%%)",
			d.Step, d.Reassigned, d.WinnerHDA, d.Objective, d.ServingValue, d.WinnerValue, d.Mix,
			-100*d.Improvement)
	case ActionMigrated:
		return fmt.Sprintf("repartition step %d: MIGRATED to %s (gen %d): %s %.4g -> %.4g on %s (%+.1f%%; cooldown %d)",
			d.Step, d.WinnerHDA, d.Generation, d.Objective, d.ServingValue, d.WinnerValue, d.Mix,
			-100*d.Improvement, d.CooldownLeft)
	}
	return fmt.Sprintf("repartition step %d: %s (gen %d): serving %s, winner %s (%s %.4g vs %.4g, %+.1f%% on %s; streak %d, cooldown %d)",
		d.Step, d.Action, d.Generation, d.ServingHDA, d.WinnerHDA, d.Objective,
		d.ServingValue, d.WinnerValue, 100*d.Improvement, d.Mix, d.Streak, d.CooldownLeft)
}

// ControllerStatus is a point-in-time controller snapshot (the
// GET /v1/fleet/repartition payload).
type ControllerStatus struct {
	// State is the lifecycle phase: "stable", "confirming" (a
	// candidate is accumulating its streak) or "cooldown".
	State       string  `json:"state"`
	Steps       int     `json:"steps"`
	Preemptions int     `json:"preemptions"`
	Reassigns   int     `json:"reassigns"`
	Migrations  int     `json:"migrations"`
	PEQuantum   int     `json:"pe_quantum"`
	Threshold   float64 `json:"threshold"`
	Confirm     int     `json:"confirm"`
	Cooldown    int     `json:"cooldown"`

	// No omitempty: zero streak/cooldown are the steady state, and a
	// status consumer must be able to read them as such.
	Streak       int `json:"streak"`
	CooldownLeft int `json:"cooldown_left"`

	// Last is the newest control step in the fleet's decision log (nil
	// before the first step).
	Last *Decision `json:"last,omitempty"`
}

// Controller is the fleet's control ladder: the piece that acts on
// the observed tenant mix. Each Step climbs
//
//	preempt -> reassign -> migrate
//
// and a rung runs only if the rungs before it did not act:
//
//  1. Preempt (PreemptBelow > 0): new SLA violations since the last
//     step preempt low-priority work, freeing committed capacity for
//     the tenants already missing targets.
//  2. Reassign (PEQuantum > 0): the best partition one PE quantum away
//     from the serving one, evaluated on the mix with a private
//     scheduler, re-slices every replica in place when it clears
//     ReassignThreshold.
//  3. Migrate (the fleet has a sweeper): re-sweep the partition search
//     on the mix and live-migrate to the winner when it clears
//     Threshold for Confirm consecutive probes outside a Cooldown.
//     With reassignment armed only winners that re-slicing cannot
//     reach (different sub count or styles) count. After a migration
//     the observed mix resets, so later decisions reflect
//     post-migration traffic only.
//
// A Controller is safe for concurrent use, but steps are serialized;
// Run drives Step on a ticker for daemon deployments, while tests and
// replay tools call Step directly at deterministic points — the same
// submission trace with Steps at the same points always yields the
// same decision sequence.
type Controller struct {
	f    *Fleet
	opts ControllerOptions
	obj  dse.Objective

	// stepMu serializes Step calls (and guards the scheduler below —
	// a sched.Scheduler is single-goroutine). It is held across a
	// migration's drain, which can take a while; the state fields are
	// therefore guarded separately so Status stays responsive during
	// exactly the window an operator wants to watch.
	stepMu sync.Mutex
	s      *sched.Scheduler // guarded by stepMu

	// mu guards the published state below. Writes happen only inside
	// Step (under stepMu); Status/Migrations read concurrently.
	mu             sync.Mutex
	steps          int    // guarded by mu
	preempts       int    // guarded by mu
	reassigns      int    // guarded by mu
	migrations     int    // guarded by mu
	lastViolations int64  // guarded by mu
	cooldownLeft   int    // guarded by mu
	pendingKey     string // partition string of the candidate being confirmed; guarded by mu
	streak         int    // guarded by mu
}

// NewController attaches a control ladder to a fleet; GET
// /v1/fleet/repartition then reports its status. At least one rung
// must be armed: a fleet sweeper (Options.Sweeper) arms migration and
// supplies the objective and scheduler configuration the ladder
// evaluates with (EDP and the engines' configuration without one).
func NewController(f *Fleet, opts ControllerOptions) (*Controller, error) {
	if f == nil {
		return nil, fmt.Errorf("fleet: controller needs a fleet")
	}
	if opts.Threshold < 0 || opts.ReassignThreshold < 0 {
		return nil, fmt.Errorf("fleet: controller thresholds must be >= 0 (got %g, reassign %g)", opts.Threshold, opts.ReassignThreshold)
	}
	if opts.PEQuantum < 0 || opts.PreemptBelow < 0 {
		return nil, fmt.Errorf("fleet: PEQuantum and PreemptBelow must be >= 0 (got %d, %d)", opts.PEQuantum, opts.PreemptBelow)
	}
	if f.sweeper == nil && opts.PEQuantum == 0 && opts.PreemptBelow == 0 {
		return nil, fmt.Errorf("fleet: controller has no rung armed: give the fleet a sweeper (set Options.Sweeper), or set PEQuantum or PreemptBelow")
	}
	if opts.PreemptBelow > 0 && !f.serveOpts.Elastic {
		return nil, fmt.Errorf("fleet: the SLA-risk preemption trigger needs elastic engines (set Options.Serve.Elastic)")
	}
	obj, schedOpts := dse.ObjectiveEDP, f.serveOpts.Sched
	if f.sweeper != nil {
		obj, schedOpts = f.sweeper.Options().Objective, f.sweeper.Options().Sched
	}
	schedOpts.Priorities = nil
	c := &Controller{f: f, opts: opts.withDefaults(), obj: obj, s: sched.MustNew(f.cache, schedOpts)}
	f.ctrlMu.Lock()
	f.controller = c
	f.ctrlMu.Unlock()
	return c, nil
}

// NewElasticController forwards to NewController.
//
// Deprecated: kept only because the benchmark harness in bench/
// calls it; use NewController.
func NewElasticController(f *Fleet, opts ControllerOptions) (*Controller, error) {
	return NewController(f, opts)
}

// Status returns the controller's current state snapshot.
func (c *Controller) Status() ControllerStatus {
	c.mu.Lock()
	st := ControllerStatus{
		State:        "stable",
		Steps:        c.steps,
		Preemptions:  c.preempts,
		Reassigns:    c.reassigns,
		Migrations:   c.migrations,
		PEQuantum:    c.opts.PEQuantum,
		Threshold:    c.opts.Threshold,
		Confirm:      c.opts.Confirm,
		Cooldown:     c.opts.Cooldown,
		Streak:       c.streak,
		CooldownLeft: c.cooldownLeft,
	}
	switch {
	case c.cooldownLeft > 0:
		st.State = "cooldown"
	case c.streak > 0:
		st.State = "confirming"
	}
	c.mu.Unlock()
	st.Last = c.f.lastControl()
	return st
}

// Migrations returns how many migrations the controller has executed.
func (c *Controller) Migrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// Step runs one control iteration and returns its decision. Steps are
// serialized; a step that migrates blocks until the retiring
// generation has drained (ctx bounds that wait; Status stays
// readable throughout). Calling Step at deterministic points of a
// fixed submission trace yields a deterministic decision sequence.
//
// If ctx expires while the retiring generation drains, the migration
// itself has still happened — the fleet serves the new generation,
// the un-drained replicas stay in the retiring set (a later Drain
// completes them), and the controller commits its post-migration
// state before reporting the interrupted drain as an error, so
// controller and fleet can never desync.
func (c *Controller) Step(ctx context.Context) (Decision, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	// State fields are written only here (under stepMu), so lock-free
	// reads are safe; every write goes through setState so Status's
	// locked reads are too.
	d := Decision{Step: c.steps, Objective: c.obj.String(), Generation: c.f.Generation()} //herald:nolock single-writer read: steps is written only inside Step, and stepMu serializes Steps
	c.setState(func() { c.steps++ })

	// Rung 1: preempt on SLA risk.
	if c.opts.PreemptBelow > 0 {
		viol := c.totalViolations()
		if prev := c.lastViolations; viol > prev { //herald:nolock single-writer read under stepMu (see the state-fields comment above)
			d.Preempted = c.f.PreemptBelow(c.opts.PreemptBelow, c.opts.PreemptMax)
		}
		c.setState(func() {
			c.lastViolations = viol
			c.preempts += d.Preempted
		})
		if d.Preempted > 0 {
			d.Action = ActionPreempted
			return c.finish(d), nil
		}
	}

	mix := c.f.ObservedMix("observed-mix")
	if mix == nil {
		d.Action = ActionNoTraffic
		return c.finish(d), nil
	}
	d.Mix = mixString(mix)
	serving, err := c.servingPartition(mix, &d)
	if err != nil {
		return d, err
	}

	// Rung 2: re-slice in place.
	if c.opts.PEQuantum > 0 {
		parts, err := c.bestNeighbor(serving, mix, &d)
		if err != nil {
			return d, err
		}
		if parts != nil && d.Improvement >= c.opts.ReassignThreshold {
			n, err := c.f.ReassignAll(parts)
			if err != nil {
				return d, fmt.Errorf("fleet: reassigning to %s: %w", d.WinnerHDA, err)
			}
			d.Action, d.Reassigned = ActionReassigned, n
			c.setState(func() {
				c.reassigns++
				c.streak, c.pendingKey = 0, ""
			})
			return c.finish(d), nil
		}
	}

	// Rung 3: migrate to the sweep winner.
	if c.f.sweeper == nil {
		d.Action = ActionHold
		return c.finish(d), nil
	}
	return c.migrate(ctx, serving, mix, d)
}

// migrate is rung 3: re-sweep on the mix, compare the winner against
// the serving partition, and migrate behind the threshold, the
// confirmation streak and the cooldown. Step only: c.stepMu held.
func (c *Controller) migrate(ctx context.Context, serving *accel.HDA, mix *workload.Workload, d Decision) (Decision, error) {
	res, err := c.f.Resweep(mix)
	if err != nil {
		return d, err
	}
	d.WinnerHDA = res.Best.HDA.String()
	d.WinnerValue = res.Best.Value(c.obj)
	d.Explored, d.Pruned = res.Explored, res.Pruned
	d.Improvement = 0
	if d.ServingValue > 0 {
		d.Improvement = (d.ServingValue - d.WinnerValue) / d.ServingValue
	}
	candidate := !res.Best.HDA.SamePartition(serving) && d.Improvement >= c.opts.Threshold &&
		(c.opts.PEQuantum == 0 || !reachableBySlicing(serving, res.Best.HDA))

	// Cooldown: observe, report, never act — and accumulate no streak,
	// so the cooldown and confirmation windows are strictly serial.
	if c.cooldownLeft > 0 { //herald:nolock single-writer read under stepMu (see the state-fields comment in Step)
		c.setState(func() {
			c.cooldownLeft--
			c.streak, c.pendingKey = 0, ""
		})
		d.Action = ActionHold
		if candidate {
			d.Action = ActionCooldown
		}
		return c.finish(d), nil
	}

	if !candidate {
		d.Action = ActionHold
		c.setState(func() { c.streak, c.pendingKey = 0, "" })
		return c.finish(d), nil
	}

	// A candidate cleared the threshold: it must be the same partition
	// for Confirm consecutive probes before the fleet moves.
	c.setState(func() {
		if key := d.WinnerHDA; key == c.pendingKey {
			c.streak++
		} else {
			c.pendingKey = key
			c.streak = 1
		}
	})
	if c.streak < c.opts.Confirm { //herald:nolock single-writer read under stepMu (see the state-fields comment in Step)
		d.Action = ActionConfirming
		return c.finish(d), nil
	}

	// Act: spawn the new generation on the winner, drain and retire
	// the old one.
	hdas := make([]*accel.HDA, len(c.f.ActiveHDAs()))
	for i := range hdas {
		hdas[i] = res.Best.HDA
	}
	migErr := c.f.Migrate(ctx, hdas)
	if migErr != nil && c.f.Generation() == d.Generation {
		// The swap never happened (replica build failed): the fleet is
		// untouched; the candidate streak survives for the next probe.
		return d, fmt.Errorf("fleet: migration to %s failed: %w", d.WinnerHDA, migErr)
	}
	// The fleet switched generations — even if the old generation's
	// drain was cut short, commit the post-migration state now.
	c.f.ResetMix()
	c.setState(func() {
		c.migrations++
		c.cooldownLeft = c.opts.Cooldown
		c.streak, c.pendingKey = 0, ""
	})
	d.Action = ActionMigrated
	d.Generation = c.f.Generation()
	d = c.finish(d)
	if migErr != nil {
		return d, fmt.Errorf("fleet: migrated to %s, but draining the retired generation was interrupted (it will finish in the background or on Drain): %w", d.WinnerHDA, migErr)
	}
	return d, nil
}

// setState applies a state mutation under the read lock, keeping
// Status race-free while Step runs.
func (c *Controller) setState(mutate func()) {
	c.mu.Lock()
	mutate()
	c.mu.Unlock()
}

// finish copies the hysteresis state into the decision, appends it to
// the fleet's decision log stamped with the fault clock, and logs it.
// c.mu and f.mu are never held together.
func (c *Controller) finish(d Decision) Decision {
	c.mu.Lock()
	d.Streak = c.streak
	d.CooldownLeft = c.cooldownLeft
	c.mu.Unlock()
	f := c.f
	f.mu.Lock()
	f.noteDecisionLocked(f.faultCycle, "control", -1, "").Control = &d
	f.mu.Unlock()
	if c.opts.Logf != nil {
		c.opts.Logf("%s", d)
	}
	return d
}

// totalViolations sums SLA violations across every live replica and
// the folded history. Step only: c.stepMu held.
func (c *Controller) totalViolations() int64 {
	var v int64
	for _, t := range c.f.Stats().Tenants {
		v += t.SLAViolations
	}
	return v
}

// evaluate schedules the mix on one partition with the private
// scheduler and returns the objective value. Step only: c.stepMu held.
func (c *Controller) evaluate(h *accel.HDA, mix *workload.Workload) (float64, error) {
	sch, err := c.s.Schedule(h, mix)
	if err != nil {
		return 0, fmt.Errorf("fleet: evaluating partition %s: %w", h, err)
	}
	v := c.obj.Pick(sch.LatencySeconds(1.0), sch.EnergyMJ(), sch.EDP(1.0))
	c.s.Recycle(sch)
	return v, nil
}

// servingPartition evaluates the probed mix on every distinct active
// partition and returns the best one — the objective value the current
// fleet could achieve on that mix, the fair baseline for every rung's
// candidate — recording it in d. Step only: c.stepMu held.
func (c *Controller) servingPartition(mix *workload.Workload, d *Decision) (*accel.HDA, error) {
	hdas := c.f.ActiveHDAs()
	var bestHDA *accel.HDA
	best := math.Inf(1)
	for i, h := range hdas {
		dup := false
		for _, seen := range hdas[:i] {
			if h.SamePartition(seen) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		v, err := c.evaluate(h, mix)
		if err != nil {
			return nil, err
		}
		if v < best {
			best, bestHDA = v, h
		}
	}
	if bestHDA == nil {
		return nil, fmt.Errorf("fleet: no active partition to evaluate")
	}
	d.ServingHDA, d.ServingValue = bestHDA.String(), best
	return bestHDA, nil
}

// bestNeighbor evaluates every partition one PE quantum away from cur
// (each ordered (from, to) sub pair, bandwidth moving proportionally),
// records the best in d as the winner, and returns its partitions —
// nil when cur has no neighbor (a single sub, or a quantum too large).
// The candidate order is the deterministic double loop, so ties
// resolve identically run to run. Step only: c.stepMu held.
func (c *Controller) bestNeighbor(cur *accel.HDA, mix *workload.Workload, d *Decision) ([]accel.Partition, error) {
	q := c.opts.PEQuantum
	bwq := cur.Class.BWGBps * float64(q) / float64(cur.Class.PEs)

	var (
		bestParts []accel.Partition
		bestHDA   *accel.HDA
		best      = math.Inf(1)
	)
	for from := range cur.Subs {
		for to := range cur.Subs {
			if from == to || cur.Subs[from].HW.PEs-q < 1 || cur.Subs[from].HW.BWGBps-bwq <= 0 {
				continue
			}
			parts := make([]accel.Partition, len(cur.Subs))
			for i, s := range cur.Subs {
				parts[i] = accel.Partition{Style: s.Style, PEs: s.HW.PEs, BWGBps: s.HW.BWGBps}
			}
			parts[from].PEs -= q
			parts[from].BWGBps -= bwq
			parts[to].PEs += q
			parts[to].BWGBps += bwq
			h, err := accel.New(cur.Name, cur.Class, parts)
			if err != nil {
				return nil, fmt.Errorf("fleet: building neighbor partition: %w", err)
			}
			v, err := c.evaluate(h, mix)
			if err != nil {
				return nil, err
			}
			if v < best {
				best, bestParts, bestHDA = v, parts, h
			}
		}
	}
	if bestHDA == nil {
		return nil, nil
	}
	d.WinnerHDA, d.WinnerValue = bestHDA.String(), best
	if d.ServingValue > 0 {
		d.Improvement = (d.ServingValue - best) / d.ServingValue
	}
	return bestParts, nil
}

// reachableBySlicing reports whether target could be reached from cur
// by PE reassignments alone: same class, same sub count, same styles
// in order. Anything else needs a migration.
func reachableBySlicing(cur, target *accel.HDA) bool {
	if cur.Class.Name != target.Class.Name || len(cur.Subs) != len(target.Subs) {
		return false
	}
	for i := range cur.Subs {
		if cur.Subs[i].Style != target.Subs[i].Style {
			return false
		}
	}
	return true
}

// mixString renders a workload as "model×batches + ..." for logs.
func mixString(w *workload.Workload) string {
	counts := make(map[string]int)
	var order []string
	for i := range w.Instances {
		name := w.Instances[i].Model.Name
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	s := ""
	for i, name := range order {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%s:%d", name, counts[name])
	}
	return s
}

// Run drives Step on a ticker until ctx is cancelled — the daemon
// form of the control loop (heraldd -repartition). Errors are logged
// (via Options.Logf) and do not stop the loop: a transient probe
// failure must not kill the controller.
func (c *Controller) Run(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, err := c.Step(ctx); err != nil && c.opts.Logf != nil {
				c.opts.Logf("repartition step failed: %v", err)
			}
		}
	}
}
