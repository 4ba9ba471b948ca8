package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
)

func kinds() []Spec {
	return []Spec{
		{Name: "c", Kind: Smooth},
		{Name: "z", Kind: Zipf, Seed: 1},
		{Name: "d", Kind: Diurnal, Seed: 2},
		{Name: "f", Kind: Flash, Seed: 3},
		{Name: "x", Kind: Correlated, Seed: 4},
		{Name: "p", Kind: FlipFlop, Seed: 5},
	}
}

func TestGenerateDeterministicAndSorted(t *testing.T) {
	for _, spec := range kinds() {
		a, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same spec generated different traces", spec.Name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty trace", spec.Name)
		}
		for i := 1; i < len(a); i++ {
			if a[i].ArrivalCycle < a[i-1].ArrivalCycle {
				t.Errorf("%s: arrivals not sorted at %d", spec.Name, i)
				break
			}
		}
		// The rendered trace is byte-stable too (the committed-corpus
		// guarantee).
		var one, two bytes.Buffer
		if err := capture.Write(&one, spec.Note(), a); err != nil {
			t.Fatal(err)
		}
		if err := capture.Write(&two, spec.Note(), b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), two.Bytes()) {
			t.Errorf("%s: rendered trace not byte-stable", spec.Name)
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	a, err := Generate(Spec{Name: "z", Kind: Zipf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Spec{Name: "z", Kind: Zipf, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical traces")
	}
}

func TestSteadyTenantEverywhere(t *testing.T) {
	for _, spec := range kinds() {
		entries, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		steady := 0
		for _, e := range entries {
			if e.Tenant == "steady" {
				steady++
			}
		}
		if steady != 32 {
			t.Errorf("%s: %d steady probes, want 32", spec.Name, steady)
		}
	}
}

func TestFlashConcentration(t *testing.T) {
	spec := Spec{Name: "f", Kind: Flash, Seed: 9, Requests: 400}
	entries, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := spec.normalized()
	lo := int64(n.FlashAt * float64(n.HorizonCycles))
	hi := lo + int64(n.FlashWidth*float64(n.HorizonCycles))
	in := 0
	for _, e := range entries {
		if e.Tenant != "steady" && e.ArrivalCycle >= lo && e.ArrivalCycle < hi {
			in++
		}
	}
	if in < 200 {
		t.Errorf("flash window holds %d of 400 hostile requests; want the crowd half", in)
	}
}

func TestFlipFlopAlternates(t *testing.T) {
	spec := Spec{Name: "p", Kind: FlipFlop, Seed: 1}
	entries, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := spec.normalized()
	for _, e := range entries {
		if e.Tenant == "steady" {
			continue
		}
		phase := (e.ArrivalCycle / n.FlipPeriodCycles) % 2
		if e.Model != n.Models[phase] {
			t.Fatalf("arrival %d phase %d serves %s, want %s", e.ArrivalCycle, phase, e.Model, n.Models[phase])
		}
	}
}

func TestZipfIsHeavyTailed(t *testing.T) {
	entries, err := Generate(Spec{Name: "z", Kind: Zipf, Seed: 3, Requests: 400})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for _, e := range entries {
		if e.Tenant != "steady" {
			counts[e.Tenant]++
			total++
		}
	}
	// Uniform would give t00 1/8 of the traffic; the Zipf head must
	// take several times that.
	if counts["t00"]*3 < total {
		t.Errorf("tenant t00 holds %d of %d — not heavy-tailed", counts["t00"], total)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: Zipf},                        // no name
		{Name: "x", Kind: "nope"},           // unknown kind
		{Name: "x", Kind: Zipf, ZipfS: 0.5}, // exponent <= 1
		{Name: "x", Kind: FlipFlop, Models: []string{"mobilenetv1"}}, // one model
		{Name: "x", Kind: Flash, FlashAt: 0.99, FlashWidth: 0.5},     // window past horizon
		{Name: "x", Kind: Zipf, Models: []string{"no-such-model"}},
		{Name: "x", Kind: Zipf, Tenants: -1},
		{Name: "x", Kind: Zipf, Requests: -1},
		{Name: "x", Kind: Zipf, HorizonCycles: -1},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d (%+v): accepted", i, s)
		}
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(strings.NewReader(`{"name":"n","kind":"zipf","seed":7,"requests":12}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "n" || s.Seed != 7 || s.Requests != 12 {
		t.Fatalf("spec %+v", s)
	}
	if _, err := ParseSpec(strings.NewReader(`{"name":"n","kind":"zipf","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec(strings.NewReader(`{"name":"n","kind":"wat"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}
