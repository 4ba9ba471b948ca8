package config

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// Ladder is the control ladder's flag family (fleet.Controller),
// bound once for every binary that steps one.
type Ladder struct {
	on                bool
	threshold         float64
	confirm           int
	cooldown          int
	quantum           int
	reassignThreshold float64
	preemptBelow      int
	preemptMax        int
}

// BindLadder registers the ladder's flags on fs.
func BindLadder(fs *flag.FlagSet) *Ladder {
	l := &Ladder{}
	fs.BoolVar(&l.on, "repartition", false, "step the control ladder once per control period (heraldd: -resweep-every; heraldplay: each full -window): preempt, else re-slice PEs in place, else migrate to the re-sweep winner")
	fs.Float64Var(&l.threshold, "repartition-threshold", 0.05, "minimum fractional objective improvement before migrating (0.05 = winner must be 5% better; 0 = any improvement)")
	fs.IntVar(&l.confirm, "repartition-confirm", 2, "consecutive steps that must agree on the winner before migrating (hysteresis, >= 1)")
	fs.IntVar(&l.cooldown, "repartition-cooldown", 3, "observation-only steps after each migration (anti-flap; 0 = none)")
	fs.IntVar(&l.quantum, "elastic-quantum", 0, "arm in-place reassignment: PEs one reassignment moves between two sub-accelerators (0 = off)")
	fs.Float64Var(&l.reassignThreshold, "elastic-threshold", 0.02, "minimum fractional objective improvement before a PE reassignment (0 = any improvement)")
	fs.IntVar(&l.preemptBelow, "elastic-preempt-below", 0, "arm SLA-risk preemption: preempt requests with priority strictly below this when new violations appear (0 = off)")
	fs.IntVar(&l.preemptMax, "elastic-preempt-max", 2, "preemptions per replica per step")
	return l
}

// Options returns the controller options the flags select, or nil
// when -repartition is off. Where the library reads 0 as "default",
// an explicit 0 on the command line means "any improvement" for the
// thresholds and "none" for the cooldown.
func (l *Ladder) Options() (*fleet.ControllerOptions, error) {
	if !l.on {
		return nil, nil
	}
	if l.confirm < 1 || l.quantum < 0 || l.preemptBelow < 0 || l.preemptMax < 1 {
		return nil, fmt.Errorf("-repartition-confirm and -elastic-preempt-max must be >= 1, -elastic-quantum and -elastic-preempt-below >= 0 (got %d, %d, %d, %d)",
			l.confirm, l.preemptMax, l.quantum, l.preemptBelow)
	}
	o := &fleet.ControllerOptions{
		PreemptBelow:      l.preemptBelow,
		PreemptMax:        l.preemptMax,
		PEQuantum:         l.quantum,
		ReassignThreshold: anyImprovement(l.reassignThreshold),
		Threshold:         anyImprovement(l.threshold),
		Confirm:           l.confirm,
		Cooldown:          l.cooldown,
	}
	if o.Cooldown == 0 {
		o.Cooldown = -1
	}
	return o, nil
}

func anyImprovement(threshold float64) float64 {
	if threshold == 0 {
		return 1e-12
	}
	return threshold
}

// Serving is the serving/fleet flag family cmd/heraldd and
// cmd/heraldplay share: the substrate, engine, fleet, fault, fusion
// and partition-search flags, plus the embedded control ladder. It is
// the only code that turns those flags into replica HDAs and
// fleet.Options, so a live daemon and an offline replay given the
// same flags serve the same configuration.
type Serving struct {
	*Ladder
	base                                    fleet.Options // the options the numeric flags bind directly
	class, partition, policy, faults        string
	styles, objective                       string
	replicas, maxSegments, peUnits, bwUnits int
	fuse                                    bool
}

// BindServing registers the serving flags (and the ladder's) on fs.
// defaultPartition is the -partition default: heraldd passes "" (run
// the bootstrap DSE), heraldplay the even two-style edge split.
func BindServing(fs *flag.FlagSet, defaultPartition string) *Serving {
	s := &Serving{Ladder: BindLadder(fs), base: fleet.DefaultOptions()}
	o := &s.base
	fs.StringVar(&s.class, "class", "edge", "accelerator class: edge, mobile, cloud")
	fs.StringVar(&s.partition, "partition", defaultPartition, "serving partition, style:pes:bw,... (heraldd: empty runs the bootstrap DSE instead)")
	fs.Float64Var(&o.Serve.ClockGHz, "clock-ghz", 1.0, "accelerator clock for cycle<->seconds stats")
	fs.IntVar(&o.Serve.MaxQueue, "max-queue", 1024, "per-tenant pending-queue capacity (per replica)")
	fs.IntVar(&o.Serve.MaxBatch, "max-batch", 8, "max admissions coalesced per scheduling round")
	fs.IntVar(&s.replicas, "replicas", 1, "replica serving engines; > 1 serves a fleet")
	fs.StringVar(&s.policy, "fleet-policy", "cost-aware", "fleet routing policy: round-robin, least-outstanding, cost-aware")
	fs.BoolVar(&s.fuse, "fuse", false, "layer-fused segment serving: decompose each request into its model's winning segment chain so consecutive requests pipeline across sub-accelerators")
	fs.IntVar(&s.maxSegments, "max-segments", 4, "upper bound on segments per fused request (with -fuse; >= 2)")
	fs.IntVar(&o.MixHalfLife, "mix-half-life", 0, "observed-mix half-life in submissions for re-sweep probes (0 = all-time counts)")
	fs.StringVar(&s.faults, "faults", "", "deterministic fault plan, cycle:replica:kind[:arg],... (kinds: crash, stall:factor, admit-fail:count, recover); heraldd serves a fleet even with -replicas 1")
	fs.Float64Var(&o.Health.ShedSLAFactor, "shed-sla-factor", 0, "shed arrivals whose best-ETA lateness exceeds this multiple of their SLA (0 = off; needs cost-aware routing and per-request SLAs; heraldd serves a fleet even with -replicas 1)")
	fs.IntVar(&o.Health.MaxAttempts, "max-attempts", 3, "per-request admission budget across crash failovers (initial dispatch included)")
	fs.IntVar(&o.Health.FailureThreshold, "breaker-threshold", 3, "consecutive replica admission failures that open its circuit breaker")
	fs.IntVar(&o.Health.ProbeAfter, "breaker-probe-after", 8, "fleet dispatches after a breaker opens before it admits a half-open probe")
	fs.StringVar(&s.styles, "styles", "nvdla,shi-diannao", "comma-separated sub-accelerator dataflow styles of the partition search (bootstrap DSE and re-sweeps)")
	fs.IntVar(&s.peUnits, "pe-units", 8, "partition search's PE granularity")
	fs.IntVar(&s.bwUnits, "bw-units", 4, "partition search's bandwidth granularity")
	fs.StringVar(&s.objective, "objective", "edp", "partition search and fusion objective: edp, latency, energy")
	return s
}

// Class resolves -class.
func (s *Serving) Class() (accel.Class, error) { return accel.ParseClass(s.class) }

// HDA builds the -partition HDA under name, or returns nil when
// -partition is empty (heraldd then picks one by bootstrap DSE).
func (s *Serving) HDA(name string) (*accel.HDA, error) {
	if s.partition == "" {
		return nil, nil
	}
	class, err := s.Class()
	if err != nil {
		return nil, err
	}
	parts, err := ParsePartition(s.partition)
	if err != nil {
		return nil, err
	}
	return accel.New(name, class, parts)
}

// Replicas returns the homogeneous replica list: -replicas copies of
// hda (FleetOptions checks -replicas >= 1).
func (s *Serving) Replicas(hda *accel.HDA) []*accel.HDA {
	out := make([]*accel.HDA, max(s.replicas, 0))
	for i := range out {
		out[i] = hda
	}
	return out
}

// FleetOptions returns the fleet configuration the flags select —
// engine clock, queue and batch, routing policy, health and shedding,
// fault plan, mix half-life, and elastic engines when the ladder's
// preemption rung is armed — after validating every serving flag,
// including the -replicas and -max-segments the other methods read.
// Fusion plans and the sweeper are the caller's to place (Plans,
// Sweeper).
func (s *Serving) FleetOptions() (fleet.Options, error) {
	o := s.base
	if s.replicas < 1 {
		return o, fmt.Errorf("-replicas must be >= 1 (got %d)", s.replicas)
	}
	if s.fuse && s.maxSegments < 2 {
		return o, fmt.Errorf("-fuse needs -max-segments >= 2 (got %d)", s.maxSegments)
	}
	ctrl, err := s.Ladder.Options()
	if err != nil {
		return o, err
	}
	if o.Policy, err = fleet.ParsePolicy(s.policy); err != nil {
		return o, err
	}
	if s.faults != "" {
		if o.Faults, err = fleet.ParseFaultPlan(s.faults); err != nil {
			return o, err
		}
	}
	// The preemption rung checkpoints and resumes placements at layer
	// boundaries; the engines must track revocable placements for
	// that (the reassignment rung needs nothing extra).
	o.Serve.Elastic = ctrl != nil && ctrl.PreemptBelow > 0
	return o, nil
}

// Plans returns the -fuse segment plans on hda (see FusionPlans), or
// nil when -fuse is off. logf, when set, also receives a summary line.
func (s *Serving) Plans(cache *maestro.Cache, hda *accel.HDA, logf func(string, ...any)) (map[string]dse.SegmentPlan, error) {
	if !s.fuse {
		return nil, nil
	}
	objective, err := ParseObjective(s.objective)
	if err != nil {
		return nil, err
	}
	plans, err := FusionPlans(cache, hda, objective, s.maxSegments, logf)
	if err == nil && logf != nil {
		logf("layer fusion on: %d of %d zoo models split (max %d segments)", len(plans), len(dnn.Names()), s.maxSegments)
	}
	return plans, err
}

// Search returns the partition-search space (-class, -styles,
// -pe-units, -bw-units) and the default search options under
// strategy (heraldd's -strategy; heraldplay sweeps exhaustively) and
// -objective.
func (s *Serving) Search(strategy string) (dse.Space, dse.Options, error) {
	sp := dse.Space{PEUnits: s.peUnits, BWUnits: s.bwUnits}
	opts := dse.DefaultOptions()
	var err error
	if sp.Class, err = s.Class(); err != nil {
		return sp, opts, err
	}
	if sp.Styles, err = ParseStyles(s.styles); err != nil {
		return sp, opts, err
	}
	if opts.Strategy, err = ParseStrategy(strategy); err != nil {
		return sp, opts, err
	}
	opts.Objective, err = ParseObjective(s.objective)
	return sp, opts, err
}

// Sweeper builds the reusable partition-search handle a fleet probes
// and migrates with, over Search's space in pruned best-only mode (a
// probe only needs the winner).
func (s *Serving) Sweeper(cache *maestro.Cache, strategy string) (*dse.Sweeper, error) {
	sp, opts, err := s.Search(strategy)
	if err != nil {
		return nil, err
	}
	opts.BestOnly = true
	opts.Prune = true
	return dse.NewSweeper(cache, sp, opts)
}

// ParseWorkload resolves a workload name (herald -workload, heraldd
// -bootstrap): arvr-a, arvr-b, mlperf, mlperf8, a zoo model, or
// model:batches.
func ParseWorkload(name string) (*workload.Workload, error) {
	switch strings.ToLower(name) {
	case "arvr-a", "arvra":
		return workload.ARVRA(), nil
	case "arvr-b", "arvrb":
		return workload.ARVRB(), nil
	case "mlperf":
		return workload.MLPerf(1), nil
	case "mlperf8":
		return workload.MLPerf(8), nil
	}
	if model, batches, ok := strings.Cut(name, ":"); ok {
		b, err := strconv.Atoi(batches)
		if err != nil {
			return nil, fmt.Errorf("bad batch count in %q: %v", name, err)
		}
		return workload.SingleDNN(model, b)
	}
	return workload.SingleDNN(name, 1)
}

// ParsePartition parses a "style:pes:bw,..." partition spec (the
// -partition flag). The shares' ranges and Definition 1 sums are
// accel.New's to check.
func ParsePartition(s string) ([]accel.Partition, error) {
	var parts []accel.Partition
	for _, item := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("partition %q: want style:pes:bw", item)
		}
		st, err := dataflow.ParseStyle(fields[0])
		if err != nil {
			return nil, err
		}
		pes, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("partition %q: bad PEs: %v", item, err)
		}
		bw, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("partition %q: bad bandwidth: %v", item, err)
		}
		parts = append(parts, accel.Partition{Style: st, PEs: pes, BWGBps: bw})
	}
	return parts, nil
}

// ParseStyles parses a comma-separated dataflow-style list (the
// -styles flag).
func ParseStyles(csv string) ([]dataflow.Style, error) {
	var styles []dataflow.Style
	for _, s := range strings.Split(csv, ",") {
		st, err := dataflow.ParseStyle(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		styles = append(styles, st)
	}
	return styles, nil
}

// ParseStrategy resolves the -strategy flag.
func ParseStrategy(name string) (dse.Strategy, error) {
	switch name {
	case "exhaustive":
		return dse.Exhaustive, nil
	case "binary":
		return dse.Binary, nil
	case "random":
		return dse.Random, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want exhaustive, binary, random)", name)
}

// ParseObjective resolves the -objective flag.
func ParseObjective(name string) (dse.Objective, error) {
	switch name {
	case "edp":
		return dse.ObjectiveEDP, nil
	case "latency":
		return dse.ObjectiveLatency, nil
	case "energy":
		return dse.ObjectiveEnergy, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want edp, latency, energy)", name)
}

// FusionPlans computes the winning segment chain of every zoo model
// that splits on hda (the -fuse startup); models whose best plan is a
// single segment stay unfused and are left out of the map. logf, when
// set, receives one line per split model.
func FusionPlans(cache *maestro.Cache, hda *accel.HDA, objective dse.Objective, maxSegments int, logf func(string, ...any)) (map[string]dse.SegmentPlan, error) {
	plans := make(map[string]dse.SegmentPlan)
	for _, name := range dnn.Names() {
		m, err := dnn.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := dse.PlanSegments(cache, hda, m, objective, maxSegments)
		if err != nil {
			return nil, err
		}
		if p.NumSegments() > 1 {
			plans[name] = p
			if logf != nil {
				logf("  fusion plan %s: %d segments (period %d cycles, chain %d cycles)",
					name, p.NumSegments(), p.PeriodCycles, p.ChainCycles)
			}
		}
	}
	return plans, nil
}
