// Package scenario generates hostile multi-tenant request traces that
// the periodic workload.Stream model cannot express: heavy-tailed
// (Zipf) tenant populations, diurnal ramps, flash crowds, correlated
// cross-tenant bursts, and adversarial mix flip-flops whose period is
// tuned to sit just inside a repartition controller's Confirm/Cooldown
// hysteresis window. Traces come out in the capture entry format with
// explicit arrival cycles, so generated and captured traffic share one
// replay path (internal/replay, cmd/heraldplay).
//
// Generation is seeded and wallclock-free: the same spec yields a
// byte-identical trace on every run and on every Go release (math/rand
// v1 sequences are pinned by the Go 1 compatibility promise), so a
// committed spec is itself a reproducible artifact — the corpus under
// testdata/scenarios/ stores both the specs and the traces they
// expand to, and CI regenerates one from the other.
//
// Every scenario also carries a low-rate "steady" control tenant
// (SteadyPeriodCycles) emitting the same periodic probe stream as the
// smooth control scenario. Comparing the steady tenant's latency
// percentiles under hostile cross-traffic against the smooth-only run
// is how the replay drill (examples/replay) bounds p99 degradation.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/capture"
	"repro/internal/dnn"
)

// Scenario kinds.
const (
	// Smooth is the control: only the steady periodic tenant.
	Smooth = "smooth"
	// Zipf draws each request's tenant from a Zipf distribution —
	// a heavy-tailed population where a few tenants dominate.
	Zipf = "zipf"
	// Diurnal modulates arrival density sinusoidally across the
	// horizon (Peaks load peaks, troughs near zero).
	Diurnal = "diurnal"
	// Flash is uniform background traffic plus a crowd: half the
	// requests compressed into a FlashWidth slice of the horizon.
	Flash = "flash"
	// Correlated fires every tenant in the same Bursts narrow epochs —
	// the cross-tenant correlation that defeats per-tenant smoothing.
	Correlated = "correlated"
	// FlipFlop alternates the model mix between Models[0] and
	// Models[1] every FlipPeriodCycles — the adversarial oscillation a
	// repartitioning controller must not chase.
	FlipFlop = "flipflop"
)

// Spec is one scenario: a kind plus its knobs. The zero value of
// every knob means "use the default", so committed spec files stay
// terse. Specs marshal to JSON for the on-disk corpus.
type Spec struct {
	// Name labels the scenario (file names, digests, logs).
	Name string `json:"name"`
	// Kind selects the generator (Smooth, Zipf, Diurnal, Flash,
	// Correlated, FlipFlop).
	Kind string `json:"kind"`
	// Seed seeds the generator.
	Seed int64 `json:"seed,omitempty"` //herald:jsonzero 0 is a valid seed and the default; absent means the same on this input struct
	// Requests is the hostile request volume (the steady control
	// tenant's probes come on top; default 160, forced 0 for Smooth).
	Requests int `json:"requests,omitempty"` //herald:jsonzero 0 picks the default volume on this input struct; absent means the same
	// HorizonCycles is the arrival horizon (default 12e6 ≈ 12 ms at
	// 1 GHz).
	HorizonCycles int64 `json:"horizon_cycles,omitempty"` //herald:jsonzero 0 picks the default horizon on this input struct; absent means the same
	// Models is the model pool (default mobilenetv1 + brq-handpose;
	// FlipFlop alternates Models[0] and Models[1]).
	Models []string `json:"models,omitempty"`
	// Tenants is the hostile tenant population size (default 8).
	Tenants int `json:"tenants,omitempty"` //herald:jsonzero 0 picks the default population on this input struct; absent means the same
	// SLACycles is stamped on every generated request (0 = no SLA).
	SLACycles int64 `json:"sla_cycles,omitempty"` //herald:jsonzero 0 is the no-SLA sentinel; absent means the same
	// SteadyPeriodCycles spaces the steady control tenant's probes
	// (default HorizonCycles/32; negative disables the tenant).
	SteadyPeriodCycles int64 `json:"steady_period_cycles,omitempty"` //herald:jsonzero 0 picks the default period on this input struct; absent means the same

	// ZipfS is the Zipf exponent (> 1; default 1.3).
	ZipfS float64 `json:"zipf_s,omitempty"` //herald:jsonzero 0 picks the default exponent on this input struct; absent means the same
	// Peaks is the diurnal peak count across the horizon (default 2).
	Peaks int `json:"peaks,omitempty"` //herald:jsonzero 0 picks the default peak count on this input struct; absent means the same
	// FlashAt / FlashWidth place the flash crowd as fractions of the
	// horizon (defaults 0.5 and 0.06).
	FlashAt    float64 `json:"flash_at,omitempty"`    //herald:jsonzero 0 picks the default position on this input struct; absent means the same
	FlashWidth float64 `json:"flash_width,omitempty"` //herald:jsonzero 0 picks the default width on this input struct; absent means the same
	// Bursts is the correlated burst-epoch count (default 4);
	// BurstWidthCycles is each epoch's width (default Horizon/64).
	Bursts           int   `json:"bursts,omitempty"`             //herald:jsonzero 0 picks the default epoch count on this input struct; absent means the same
	BurstWidthCycles int64 `json:"burst_width_cycles,omitempty"` //herald:jsonzero 0 picks the default width on this input struct; absent means the same
	// FlipPeriodCycles is the mix oscillation period (default
	// Horizon/8). Tune it against the controller's step cadence: a
	// period shorter than Confirm consecutive controller windows keeps
	// each drift inside the hysteresis, so a stable controller must
	// refuse to chase it.
	FlipPeriodCycles int64 `json:"flip_period_cycles,omitempty"` //herald:jsonzero 0 picks the default period on this input struct; absent means the same
}

// normalized applies defaults and validates; it leaves the receiver
// untouched.
func (s Spec) normalized() (Spec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("scenario: spec needs a name")
	}
	if s.HorizonCycles == 0 {
		s.HorizonCycles = 12_000_000
	}
	if s.HorizonCycles < 0 {
		return s, fmt.Errorf("scenario %s: negative horizon %d", s.Name, s.HorizonCycles)
	}
	if s.Requests == 0 {
		s.Requests = 160
	}
	if s.Kind == Smooth {
		s.Requests = 0
	}
	if s.Requests < 0 {
		return s, fmt.Errorf("scenario %s: negative request volume %d", s.Name, s.Requests)
	}
	if len(s.Models) == 0 {
		s.Models = []string{"mobilenetv1", "brq-handpose"}
	}
	for _, m := range s.Models {
		if _, err := dnn.ByName(m); err != nil {
			return s, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Tenants == 0 {
		s.Tenants = 8
	}
	if s.Tenants < 1 {
		return s, fmt.Errorf("scenario %s: needs at least one tenant (got %d)", s.Name, s.Tenants)
	}
	if s.SteadyPeriodCycles == 0 {
		s.SteadyPeriodCycles = s.HorizonCycles / 32
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.3
	}
	if s.Peaks == 0 {
		s.Peaks = 2
	}
	if s.FlashAt == 0 {
		s.FlashAt = 0.5
	}
	if s.FlashWidth == 0 {
		s.FlashWidth = 0.06
	}
	if s.Bursts == 0 {
		s.Bursts = 4
	}
	if s.BurstWidthCycles == 0 {
		s.BurstWidthCycles = s.HorizonCycles / 64
	}
	if s.FlipPeriodCycles == 0 {
		s.FlipPeriodCycles = s.HorizonCycles / 8
	}
	switch s.Kind {
	case Smooth, Zipf, Diurnal, Flash, Correlated, FlipFlop:
	default:
		return s, fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
	}
	if s.Kind == Zipf && s.ZipfS <= 1 {
		return s, fmt.Errorf("scenario %s: zipf exponent must be > 1 (got %g)", s.Name, s.ZipfS)
	}
	if s.Kind == FlipFlop && len(s.Models) < 2 {
		return s, fmt.Errorf("scenario %s: flipflop needs two models", s.Name)
	}
	if s.Kind == Flash && (s.FlashAt < 0 || s.FlashWidth <= 0 || s.FlashAt+s.FlashWidth > 1) {
		return s, fmt.Errorf("scenario %s: flash window [%g, %g+%g] outside the horizon",
			s.Name, s.FlashAt, s.FlashAt, s.FlashWidth)
	}
	if s.Kind == Smooth && s.SteadyPeriodCycles < 0 {
		return s, fmt.Errorf("scenario %s: smooth needs the steady tenant", s.Name)
	}
	return s, nil
}

// Note renders the trace-header note a generated trace carries — a
// deterministic function of the spec, so regenerating a committed
// trace reproduces it byte for byte.
func (s Spec) Note() string {
	n, err := s.normalized()
	if err != nil {
		n = s
	}
	return fmt.Sprintf("scenario %s kind=%s seed=%d requests=%d horizon=%d tenants=%d",
		n.Name, n.Kind, n.Seed, n.Requests, n.HorizonCycles, n.Tenants)
}

// ParseSpec reads one JSON spec.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	if len(s.Models) == 0 {
		s.Models = nil // an empty list means the default pool, as an absent one does
	}
	_, err := s.normalized()
	return s, err
}

// tenant names hostile tenant i ("t00", "t01", ...).
func tenant(i int) string { return fmt.Sprintf("t%02d", i) }

// Generate expands a spec into a capture-format trace, sorted by
// arrival cycle (ties keep generation order). Deterministic: the same
// spec always returns the same entries.
func Generate(spec Spec) ([]capture.Entry, error) {
	s, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(s.Seed))
	entry := func(ten string, model string, cycle int64) capture.Entry {
		return capture.Entry{Tenant: ten, Model: model, ArrivalCycle: cycle, SLACycles: s.SLACycles}
	}
	pick := func() string { return s.Models[r.Intn(len(s.Models))] }
	var out []capture.Entry

	switch s.Kind {
	case Smooth:
		// Only the steady control tenant, appended below.
	case Zipf:
		z := rand.NewZipf(r, s.ZipfS, 1, uint64(s.Tenants-1))
		for i := 0; i < s.Requests; i++ {
			out = append(out, entry(tenant(int(z.Uint64())), pick(), r.Int63n(s.HorizonCycles)))
		}
	case Diurnal:
		// Rejection-sample the raised-cosine density: Peaks peaks, dark
		// troughs. Acceptance averages 1/2, so the loop terminates fast.
		for i := 0; i < s.Requests; i++ {
			var c int64
			for {
				c = r.Int63n(s.HorizonCycles)
				x := float64(c) / float64(s.HorizonCycles)
				if r.Float64() < 0.5*(1-math.Cos(2*math.Pi*float64(s.Peaks)*x)) {
					break
				}
			}
			out = append(out, entry(tenant(r.Intn(s.Tenants)), pick(), c))
		}
	case Flash:
		base := s.Requests / 2
		start := int64(s.FlashAt * float64(s.HorizonCycles))
		width := max(int64(s.FlashWidth*float64(s.HorizonCycles)), 1)
		for i := 0; i < base; i++ {
			out = append(out, entry(tenant(r.Intn(s.Tenants)), pick(), r.Int63n(s.HorizonCycles)))
		}
		for i := base; i < s.Requests; i++ {
			out = append(out, entry(tenant(r.Intn(s.Tenants)), pick(), start+r.Int63n(width)))
		}
	case Correlated:
		per := max(s.Requests/(s.Bursts*s.Tenants), 1)
		for k := 0; k < s.Bursts; k++ {
			epoch := int64(k+1) * s.HorizonCycles / int64(s.Bursts+1)
			for t := 0; t < s.Tenants; t++ {
				for j := 0; j < per; j++ {
					out = append(out, entry(tenant(t), pick(), epoch+r.Int63n(s.BurstWidthCycles)))
				}
			}
		}
	case FlipFlop:
		for i := 0; i < s.Requests; i++ {
			c := r.Int63n(s.HorizonCycles)
			phase := (c / s.FlipPeriodCycles) % 2
			out = append(out, entry(tenant(r.Intn(s.Tenants)), s.Models[phase], c))
		}
	}

	if s.SteadyPeriodCycles > 0 {
		for c := int64(0); c < s.HorizonCycles; c += s.SteadyPeriodCycles {
			out = append(out, entry("steady", s.Models[0], c))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ArrivalCycle < out[j].ArrivalCycle })
	return out, nil
}
