// Package herald is a from-scratch Go reproduction of
//
//	Kwon, Lai, Pellauer, Krishna, Chen, Chandra.
//	"Heterogeneous Dataflow Accelerators for Multi-DNN Workloads."
//	HPCA 2021 (arXiv:1909.07437).
//
// It provides the complete system the paper describes: a MAESTRO-style
// analytical cost model for DNN accelerators, the three fixed dataflow
// styles the paper evaluates (NVDLA, Shi-diannao, Eyeriss), the four
// accelerator organizations (FDA, SM-FDA, RDA, HDA), the Herald layer
// scheduler with load balancing and idle-time post-processing, and the
// hardware/schedule co-design-space exploration that identifies the
// Maelstrom architecture — plus a benchmark harness regenerating every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	h := herald.NewFramework()
//	design, err := h.CoDesign(herald.Edge, herald.MaelstromStyles(),
//	    herald.ARVRA(), 16, 8, herald.Exhaustive)
//	if err != nil { ... }
//	fmt.Println(design.HDA)           // optimized PE/BW partitioning
//	fmt.Println(design.LatencySec)    // expected latency
//	fmt.Println(design.EnergyMJ)      // expected energy
//
// The package is a facade over the internal packages; every exported
// name maps one-to-one onto a concept in the paper — plus the serving
// stack grown on top of it: the online multi-tenant serving engine
// (ServingEngine), multi-HDA fleet dispatch (Fleet, routing policies),
// warm re-sweeps of the partition search on live traffic (Sweeper,
// Fleet.Resweep), and the dynamic-repartitioning controller that acts
// on those probes with live migrations (RepartitionController).
// docs/ARCHITECTURE.md maps the layers; docs/OPERATIONS.md is the
// serving-daemon runbook.
package herald

import (
	"context"
	"io"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/refsim"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DNN workload substrate (Table I / Table II).
type (
	// Layer is one DNN layer shape (K,C,Y,X,R,S + operator).
	Layer = dnn.Layer
	// Op is a layer operator type (CONV2D, PWCONV, DWCONV, FC, UPCONV).
	Op = dnn.Op
	// Model is an ordered list of layers with a linear dependence chain.
	Model = dnn.Model
	// Workload is a multi-DNN workload: model instances × batches.
	Workload = workload.Workload
	// WorkloadEntry requests batches of one zoo model.
	WorkloadEntry = workload.Entry
)

// Layer operator constants.
const (
	Conv2D = dnn.Conv2D
	PWConv = dnn.PWConv
	DWConv = dnn.DWConv
	FC     = dnn.FC
	UpConv = dnn.UpConv
)

// Dataflows and mappings (§II-B, Fig. 4).
type (
	// Style is a fixed dataflow style.
	Style = dataflow.Style
	// Mapping is a dataflow instantiated for one layer on one array.
	Mapping = dataflow.Mapping
)

// The three dataflow styles of the evaluation.
const (
	NVDLA      = dataflow.NVDLA
	ShiDiannao = dataflow.ShiDiannao
	Eyeriss    = dataflow.Eyeriss
)

// Cost model (§IV-B).
type (
	// HW describes one (sub-)accelerator substrate.
	HW = maestro.HW
	// Cost is an estimated layer execution cost.
	Cost = maestro.Cost
	// CostCache memoizes cost queries.
	CostCache = maestro.Cache
	// EnergyTable holds per-access energies.
	EnergyTable = energy.Table
)

// Accelerator organizations (Table III / Table IV).
type (
	// Class is an accelerator resource budget (edge/mobile/cloud).
	Class = accel.Class
	// HDA is a heterogeneous dataflow accelerator (Definition 1);
	// FDAs and SM-FDAs are degenerate HDAs.
	HDA = accel.HDA
	// Partition assigns one sub-accelerator its style and resources.
	Partition = accel.Partition
	// RDA is a MAERI-style reconfigurable dataflow accelerator.
	RDA = accel.RDA
)

// The Table IV accelerator classes.
var (
	Edge   = accel.Edge
	Mobile = accel.Mobile
	Cloud  = accel.Cloud
)

// Scheduling (§IV-D).
type (
	// Schedule is a layer execution schedule with aggregate costs.
	Schedule = sched.Schedule
	// SchedOptions configures the Herald scheduler.
	SchedOptions = sched.Options
	// Scheduler generates schedules for HDAs.
	Scheduler = sched.Scheduler
	// Metric selects the per-layer preference metric.
	Metric = sched.Metric
	// Ordering selects the initial layer ordering heuristic.
	Ordering = sched.Ordering
)

// Scheduler metric and ordering constants.
const (
	MetricEDP     = sched.MetricEDP
	MetricLatency = sched.MetricLatency
	MetricEnergy  = sched.MetricEnergy
	BreadthFirst  = sched.BreadthFirst
	DepthFirst    = sched.DepthFirst
)

// Design space exploration (§IV-C).
type (
	// SearchSpace is a partitioning design space.
	SearchSpace = dse.Space
	// SearchStrategy selects exhaustive/binary/random search.
	SearchStrategy = dse.Strategy
	// DesignPoint is one evaluated partition.
	DesignPoint = dse.Point
)

// Search strategies.
const (
	Exhaustive = dse.Exhaustive
	Binary     = dse.Binary
	Random     = dse.Random
)

// SearchObjective selects what a search's Best point minimizes.
type SearchObjective = dse.Objective

// Search objectives (§IV-D: "users can select the metric").
const (
	ObjectiveEDP     = dse.ObjectiveEDP
	ObjectiveLatency = dse.ObjectiveLatency
	ObjectiveEnergy  = dse.ObjectiveEnergy
)

// Framework is Herald itself: the co-optimizer of hardware resource
// partitioning and layer execution scheduling (§IV, Fig. 10).
type Framework = core.Herald

// Design is a co-optimized HDA design point (Fig. 10 outputs).
type Design = core.Design

// Eval is a uniform latency/energy/EDP summary.
type Eval = core.Eval

// NewFramework returns a Herald framework with the default 28 nm
// energy table and scheduler options.
func NewFramework() *Framework { return core.Default() }

// NewFrameworkWith returns a Herald framework with custom energy and
// scheduler configurations.
func NewFrameworkWith(et EnergyTable, opts SchedOptions) (*Framework, error) {
	return core.New(et, opts)
}

// DefaultEnergyTable returns the 28 nm Eyeriss-ratio energy table.
func DefaultEnergyTable() EnergyTable { return energy.Default28nm() }

// DefaultSchedOptions returns Herald's standard scheduler options.
func DefaultSchedOptions() SchedOptions { return sched.DefaultOptions() }

// GreedySchedOptions returns the naive greedy baseline scheduler.
func GreedySchedOptions() SchedOptions { return sched.GreedyOptions() }

// ModelByName returns a model from the zoo (resnet50, mobilenetv1,
// mobilenetv2, unet, brq-handpose, fl-depthnet, ssd-resnet34,
// ssd-mobilenetv1, gnmt).
func ModelByName(name string) (*Model, error) { return dnn.ByName(name) }

// ModelNames lists the zoo.
func ModelNames() []string { return dnn.Names() }

// AllStyles returns the three evaluated dataflow styles.
func AllStyles() []Style { return dataflow.AllStyles() }

// MaelstromStyles returns the NVDLA + Shi-diannao pair of the paper's
// identified architecture.
func MaelstromStyles() []Style { return []Style{NVDLA, ShiDiannao} }

// ParseStyle resolves a dataflow style by name.
func ParseStyle(name string) (Style, error) { return dataflow.ParseStyle(name) }

// ParseClass resolves an accelerator class by name.
func ParseClass(name string) (Class, error) { return accel.ParseClass(name) }

// Classes returns the three Table IV accelerator classes.
func Classes() []Class { return accel.Classes() }

// ARVRA returns the AR/VR-A workload of Table II.
func ARVRA() *Workload { return workload.ARVRA() }

// ARVRB returns the AR/VR-B workload of Table II.
func ARVRB() *Workload { return workload.ARVRB() }

// MLPerf returns the MLPerf multi-stream workload of Table II at the
// given per-model batch count.
func MLPerf(batches int) *Workload { return workload.MLPerf(batches) }

// SingleDNN returns a single-model workload (Fig. 12's case study).
func SingleDNN(model string, batches int) (*Workload, error) {
	return workload.SingleDNN(model, batches)
}

// NewWorkload builds a custom workload from zoo entries.
func NewWorkload(name string, entries []WorkloadEntry) (*Workload, error) {
	return workload.New(name, entries)
}

// NewHDA builds an HDA from explicit partitions (Definition 1).
func NewHDA(name string, class Class, parts []Partition) (*HDA, error) {
	return accel.New(name, class, parts)
}

// NewFDA builds a monolithic fixed-dataflow accelerator.
func NewFDA(class Class, style Style) (*HDA, error) { return accel.NewFDA(class, style) }

// NewSMFDA builds a scaled-out multi-FDA with n equal sub-accelerators.
func NewSMFDA(class Class, style Style, n int) (*HDA, error) {
	return accel.NewSMFDA(class, style, n)
}

// NewRDA builds a MAERI-style reconfigurable accelerator with the
// paper-calibrated flexibility taxes.
func NewRDA(class Class) (*RDA, error) { return accel.NewRDA(class) }

// NewScheduler returns a Herald scheduler over a cost cache. A
// Scheduler keeps private scratch state and an unsynchronized L0 cost
// cache, so it is NOT safe for concurrent use: create one per
// goroutine and let them share the (concurrency-safe) CostCache.
func NewScheduler(cache *CostCache, opts SchedOptions) (*Scheduler, error) {
	return sched.New(cache, opts)
}

// NewCostCache returns a memoizing cost-model cache.
func NewCostCache(et EnergyTable) *CostCache { return maestro.NewCache(et) }

// EstimateLayer runs the analytical cost model for one layer on one
// substrate under one dataflow style.
func EstimateLayer(l *Layer, style Style, hw HW, et EnergyTable) Cost {
	return maestro.Estimate(l, style, hw, et)
}

// Search explores a partitioning space for a workload.
func Search(cache *CostCache, space SearchSpace, w *Workload, opts SearchOptions) (*SearchResult, error) {
	return dse.Search(cache, space, w, opts)
}

// SearchOptions configures a DSE run. BestOnly drops the design cloud
// (memory O(workers) instead of O(space)); Prune additionally skips
// scheduling partitions whose objective lower bound provably cannot
// win — Best is bit-identical either way.
type SearchOptions = dse.Options

// SearchResult is a DSE outcome (cloud, Pareto front, best point).
type SearchResult = dse.Result

// DefaultSearchOptions returns an exhaustive search with default
// scheduling.
func DefaultSearchOptions() SearchOptions { return dse.DefaultOptions() }

// Sweeper is a reusable DSE handle: per-worker schedulers, partition
// HDAs and bound memo tables stay warm across Sweep calls, so
// re-running a search (e.g. a fleet probing repartitioning on its
// observed traffic) costs a warm sweep instead of a cold one.
type Sweeper = dse.Sweeper

// NewSweeper builds a reusable sweep handle over one (space, options)
// search configuration.
func NewSweeper(cache *CostCache, space SearchSpace, opts SearchOptions) (*Sweeper, error) {
	return dse.NewSweeper(cache, space, opts)
}

// --- Schedule inspection and export (internal/trace) ---

// Gantt renders a schedule as a text Gantt chart, one lane per
// sub-accelerator.
func Gantt(s *Schedule, width int) string { return trace.Gantt(s, width) }

// InstanceSummary is the per-model-instance completion view of a
// schedule.
type InstanceSummary = trace.InstanceSummary

// ScheduleInstances summarizes per-instance completion times — the
// per-subtask latencies an AR/VR integrator reads off a schedule.
func ScheduleInstances(s *Schedule) []InstanceSummary { return trace.Instances(s) }

// WriteScheduleCSV dumps every assignment of a schedule as CSV.
func WriteScheduleCSV(w io.Writer, s *Schedule) error { return trace.WriteCSV(w, s) }

// WriteScheduleJSON dumps a schedule as indented JSON.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return trace.WriteJSON(w, s) }

// OccupancySample is one point of the shared-buffer occupancy
// timeline.
type OccupancySample = trace.Sample

// OccupancyTimeline returns the global-buffer occupancy step function
// of a schedule.
func OccupancyTimeline(s *Schedule) []OccupancySample { return trace.OccupancyTimeline(s) }

// --- Online serving (internal/serve, internal/sched incremental) ---

// Online multi-tenant serving over a fixed HDA (cmd/heraldd's core).
type (
	// ServingEngine admits inference requests at runtime, extends the
	// schedule incrementally, and reports latency/SLA statistics.
	ServingEngine = serve.Engine
	// ServingOptions configures a serving engine.
	ServingOptions = serve.Options
	// InferenceRequest is one runtime inference submission.
	InferenceRequest = serve.Request
	// RequestRecord is the engine's per-request placement and
	// latency/SLA record.
	RequestRecord = serve.Record
	// RequestTicket tracks an accepted submission to completion.
	RequestTicket = serve.Ticket
	// ServingStats is the aggregate + per-tenant statistics snapshot.
	ServingStats = serve.Stats
	// TenantStats summarizes one tenant's served traffic.
	TenantStats = serve.TenantStats
)

// RequestStatus is a serving request's lifecycle state.
type RequestStatus = serve.Status

// Request lifecycle statuses. StatusLost marks a request extracted by
// a replica crash (fleet failover re-admits it on a survivor).
// StatusPreempted marks a request checkpointed at a layer boundary and
// re-queued for resumption (elastic serving).
const (
	StatusQueued    = serve.StatusQueued
	StatusDone      = serve.StatusDone
	StatusFailed    = serve.StatusFailed
	StatusLost      = serve.StatusLost
	StatusPreempted = serve.StatusPreempted
)

// Incremental scheduling (the serving engine's substrate).
type (
	// IncrementalSchedule extends a committed schedule admission by
	// admission instead of requiring the whole workload up front.
	IncrementalSchedule = sched.Incremental
	// Admission is one instance admitted to an incremental schedule.
	Admission = sched.Admission
	// Placement reports where an admitted instance landed.
	Placement = sched.Placement
	// SchedCheckpoint is the resumable token a layer-boundary
	// preemption returns (IncrementalSchedule.Preempt/Resume).
	SchedCheckpoint = sched.Checkpoint
)

// Streaming arrivals (serving traffic generation).
type (
	// StreamEntry describes one periodic request stream of a model.
	StreamEntry = workload.StreamEntry
	// Arrival is one streamed model-instance request.
	Arrival = workload.Arrival
)

// NewServingEngine starts an online serving engine over a fixed HDA.
func NewServingEngine(cache *CostCache, hda *HDA, opts ServingOptions) (*ServingEngine, error) {
	return serve.New(cache, hda, opts)
}

// DefaultServingOptions returns the serving-engine defaults over
// Herald's standard scheduler configuration.
func DefaultServingOptions() ServingOptions { return serve.DefaultOptions() }

// EngineLoad is a point-in-time serving-engine load probe (pending
// work, committed backlog) for dispatchers and monitoring.
type EngineLoad = serve.Load

// --- Layer-fused segment serving (segment-cut DSE + chained admission) ---

// Segment chains: a model's layers split into contiguous segments,
// each pinned to the sub-accelerator whose dataflow prefers it, served
// as a precedence chain so consecutive requests pipeline across
// sub-accelerators.
type (
	// SegmentPlan is one model's winning fusion cut on a concrete HDA
	// (ordered segments + pipeline period / chain latency bounds).
	SegmentPlan = dse.SegmentPlan
	// PlanSegment is one contiguous layer range of a plan pinned to
	// one sub-accelerator.
	PlanSegment = dse.Segment
	// SegmentRecord is one segment's slice of a fused request record.
	SegmentRecord = serve.SegmentRecord
	// SegmentServingStats counts fused requests and their segments at
	// both granularities, plus pipeline-overlap cycle metrics.
	SegmentServingStats = serve.SegmentStats
)

// PlanSegments searches model m's fusion cuts on HDA h and returns the
// plan with at most maxSegments segments minimizing the pipeline
// period (ties: fewer segments, then smaller chain latency).
// maxSegments <= 1, or a single-sub HDA, yields the unfused
// single-segment plan. Feed the winning plans to a fleet's
// ServingOptions.Plans (a bare engine ignores them): the fleet
// decomposes each fused request into its segment chain and sends all
// the segments to one engine, which links them, when its replicas
// serve one partition, or routes each segment across replicas when
// they differ.
func PlanSegments(cache *CostCache, h *HDA, m *Model, o SearchObjective, maxSegments int) (SegmentPlan, error) {
	return dse.PlanSegments(cache, h, m, o, maxSegments)
}

// --- Fleet serving (internal/fleet) ---

// Multi-HDA fleet serving: N replica engines behind a routing policy.
type (
	// Fleet dispatches inference requests across replica serving
	// engines (homogeneous, or heterogeneous from DSE top-K points).
	Fleet = fleet.Fleet
	// FleetOptions configures a fleet (per-replica engine options +
	// routing policy).
	FleetOptions = fleet.Options
	// FleetPolicy selects how submissions are routed across replicas.
	FleetPolicy = fleet.Policy
	// FleetStats is the fleet-wide statistics snapshot (per-replica
	// breakdown + tenants merged across replicas).
	FleetStats = fleet.Stats
	// FleetReplicaStats is one replica's slice of the fleet stats.
	FleetReplicaStats = fleet.ReplicaStats
	// FleetTicket tracks a dispatched submission and its replica.
	FleetTicket = fleet.Ticket
)

// Fleet routing policies.
const (
	RouteRoundRobin       = fleet.RoundRobin
	RouteLeastOutstanding = fleet.LeastOutstanding
	RouteCostAware        = fleet.CostAware
)

// NewFleet starts one serving engine per HDA (heterogeneous fleets
// pass dse TopK points), all sharing one cost cache.
func NewFleet(cache *CostCache, hdas []*HDA, opts FleetOptions) (*Fleet, error) {
	return fleet.New(cache, hdas, opts)
}

// NewReplicatedFleet starts a homogeneous fleet of n replicas of one
// HDA.
func NewReplicatedFleet(cache *CostCache, hda *HDA, n int, opts FleetOptions) (*Fleet, error) {
	return fleet.Replicated(cache, hda, n, opts)
}

// DefaultFleetOptions returns a cost-aware fleet over the
// serving-engine defaults.
func DefaultFleetOptions() FleetOptions { return fleet.DefaultOptions() }

// ParseFleetPolicy resolves a routing policy by name (round-robin,
// least-outstanding, cost-aware).
func ParseFleetPolicy(name string) (FleetPolicy, error) { return fleet.ParsePolicy(name) }

// --- Dynamic repartitioning (internal/fleet's Controller) ---

// Repartitioning: the control ladder that acts on the observed mix.
type (
	// RepartitionController climbs one ladder per step: preempt
	// low-priority work on SLA risk, else re-slice PEs between
	// sub-accelerators in place, else live-migrate the fleet (spawn →
	// drain → hand over) to the re-sweep winner behind a threshold,
	// hysteresis and cooldown.
	RepartitionController = fleet.Controller
	// RepartitionOptions arms and tunes the ladder's rungs
	// (PreemptBelow, PEQuantum, threshold, confirmation, cooldown).
	RepartitionOptions = fleet.ControllerOptions
	// RepartitionDecision records one controller step.
	RepartitionDecision = fleet.Decision
	// RepartitionStatus is the controller's state snapshot (the
	// GET /v1/fleet/repartition payload).
	RepartitionStatus = fleet.ControllerStatus
	// RepartitionAction is the outcome of one controller step.
	RepartitionAction = fleet.Action
)

// Controller step outcomes.
const (
	RepartitionNoTraffic  = fleet.ActionNoTraffic
	RepartitionHold       = fleet.ActionHold
	RepartitionPreempted  = fleet.ActionPreempted
	RepartitionReassigned = fleet.ActionReassigned
	RepartitionConfirming = fleet.ActionConfirming
	RepartitionCooldown   = fleet.ActionCooldown
	RepartitionMigrated   = fleet.ActionMigrated
)

// Fault tolerance (see internal/fleet's fault layer).
type (
	// FaultPlan is a deterministic, cycle-scheduled fault schedule
	// (FleetOptions.Faults) — crashes, stalls, admission-failure
	// bursts, recoveries — replayable alongside a fixed arrival trace.
	FaultPlan = fleet.FaultPlan
	// FaultEvent is one cycle-scheduled fault against one replica.
	FaultEvent = fleet.FaultEvent
	// FaultKind enumerates the injectable fault events.
	FaultKind = fleet.FaultKind
	// FleetHealthOptions tunes failure detection (circuit breaker,
	// stall detection), failover attempt budgets and overload
	// shedding (FleetOptions.Health).
	FleetHealthOptions = fleet.HealthOptions
	// FleetHealthReport is the GET /v1/fleet/health payload.
	FleetHealthReport = fleet.HealthReport
	// FaultDecision is one entry of the fleet's replayable
	// fault-handling decision log.
	FaultDecision = fleet.FaultDecision
	// ShedError rejects an arrival the fleet's admission controller
	// shed (HTTP 429 + Retry-After).
	ShedError = fleet.ShedError
)

// Injectable fault kinds.
const (
	FaultCrash     = fleet.FaultCrash
	FaultStall     = fleet.FaultStall
	FaultAdmitFail = fleet.FaultAdmitFail
	FaultRecover   = fleet.FaultRecover
)

// NewFaultPlan validates fault events and returns a plan with them
// stably sorted by cycle.
func NewFaultPlan(events []FaultEvent) (*FaultPlan, error) { return fleet.NewFaultPlan(events) }

// ParseFaultPlan parses the "cycle:replica:kind[:arg],..." fault-plan
// syntax (kinds: crash, stall:factor, admit-fail:count, recover).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fleet.ParseFaultPlan(spec) }

// NewRepartitionController attaches the control ladder to a fleet.
// FleetOptions.Sweeper arms migration; the preemption rung also needs
// ServingOptions.Elastic on the fleet's engines. Drive it with Step
// (deterministic replay) or Run (daemon ticker loop).
func NewRepartitionController(f *Fleet, opts RepartitionOptions) (*RepartitionController, error) {
	return fleet.NewController(f, opts)
}

// ExportFaultPlan reconstructs an injectable FaultPlan from a fault
// decision log (GET /v1/fleet/decisions) — the export-an-incident
// path: capture the trace, export the decisions, re-run both offline.
func ExportFaultPlan(decs []FaultDecision) (*FaultPlan, error) { return fleet.ExportFaultPlan(decs) }

// FormatFaultPlan renders a plan in ParseFaultPlan's syntax
// ("cycle:replica:kind[:arg],..."), round-tripping exactly.
func FormatFaultPlan(p *FaultPlan) string { return fleet.FormatFaultPlan(p) }

// --- Trace capture, scenario generation, deterministic replay ---

type (
	// TraceEntry is one captured request in a versioned JSONL trace.
	TraceEntry = capture.Entry
	// TraceRecorder streams accepted submissions to a trace writer
	// (wire it to FleetOptions.OnAccept).
	TraceRecorder = capture.Recorder
	// Trace is a fully-read request trace (header note + entries).
	Trace = capture.Trace
	// ScenarioSpec declares a seeded synthetic traffic scenario
	// (internal/scenario): Zipf tenant skew, diurnal ramps, flash
	// crowds, correlated bursts, flip-flop mixes. Kind is one of the
	// Scenario* constants below.
	ScenarioSpec = scenario.Spec
	// ReplayOptions configures one deterministic replay run.
	ReplayOptions = replay.Options
	// ReplayDigest is a replay's deterministic outcome: counters,
	// conservation, per-tenant percentiles, fault and repartition
	// decisions. Byte-compare Canonical() renderings for equality.
	ReplayDigest = replay.Digest
)

// Scenario generator families.
const (
	ScenarioSmooth     = scenario.Smooth
	ScenarioZipf       = scenario.Zipf
	ScenarioDiurnal    = scenario.Diurnal
	ScenarioFlash      = scenario.Flash
	ScenarioCorrelated = scenario.Correlated
	ScenarioFlipFlop   = scenario.FlipFlop
)

// NewTraceRecorder starts a capture stream on w: a version header now,
// one JSONL entry per recorded request.
func NewTraceRecorder(w io.Writer, note string) (*TraceRecorder, error) {
	return capture.NewRecorder(w, note)
}

// ReadTrace parses a captured or generated trace stream.
func ReadTrace(r io.Reader) (*Trace, error) { return capture.Read(r) }

// WriteTrace renders entries in the capture wire format, so generated
// and captured traces are byte-compatible.
func WriteTrace(w io.Writer, note string, entries []TraceEntry) error {
	return capture.Write(w, note, entries)
}

// GenerateScenario renders a scenario spec into a sorted, seeded,
// byte-stable arrival trace.
func GenerateScenario(spec ScenarioSpec) ([]TraceEntry, error) { return scenario.Generate(spec) }

// ParseScenarioSpec decodes a scenario-spec JSON document (unknown
// fields rejected; see internal/scenario for the knobs).
func ParseScenarioSpec(r io.Reader) (ScenarioSpec, error) { return scenario.ParseSpec(r) }

// Replay re-runs a trace against a candidate fleet configuration under
// the windowed deterministic protocol and returns its digest. See
// internal/replay and cmd/heraldplay.
func Replay(ctx context.Context, cache *CostCache, hdas []*HDA, tr *Trace, o ReplayOptions) (*ReplayDigest, error) {
	return replay.Run(ctx, cache, hdas, tr, o)
}

// DiffDigests compares two digest JSON documents leaf by leaf,
// returning one "path: a -> b" line per difference.
func DiffDigests(a, b []byte) ([]string, error) { return replay.DiffJSON(a, b) }

// DesignFromSearch converts a search outcome into the Fig. 10 design
// view — the plumbing callers use to render what a probe or
// controller picked (expected latency/energy/EDP of the winning
// partition) without re-running anything.
func DesignFromSearch(res *SearchResult) *Design { return core.DesignFromResult(res) }

// Stream merges periodic per-model request streams (with seeded
// jitter) into one cycle-ordered arrival sequence.
func Stream(entries []StreamEntry, seed int64) ([]Arrival, error) {
	return workload.Stream(entries, seed)
}

// StreamWorkload converts an arrival stream into a schedulable
// workload (every arrival becomes an instance with its arrival cycle).
func StreamWorkload(name string, arrivals []Arrival) (*Workload, error) {
	return workload.ToWorkload(name, arrivals)
}

// --- Cost-model validation (internal/refsim) ---

// SimResult is a tile-level reference-simulation measurement.
type SimResult = refsim.Result

// SimulateLayer walks the tiled loop nest of a (layer, style, array)
// mapping cycle group by cycle group — the reference the analytical
// model is validated against.
func SimulateLayer(style Style, l *Layer, pes int) SimResult {
	return refsim.Simulate(style, l, pes)
}
