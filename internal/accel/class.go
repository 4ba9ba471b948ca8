// Package accel defines the accelerator organizations the paper
// evaluates (Table III) over the edge/mobile/cloud resource classes of
// Table IV:
//
//   - FDA: a monolithic fixed-dataflow accelerator (one substrate, one
//     dataflow, all resources).
//   - SM-FDA: a scaled-out multi-FDA — n identical sub-accelerators
//     running the same dataflow with evenly partitioned resources.
//   - HDA: the paper's contribution — sub-accelerators with *different*
//     dataflows and freely partitioned PEs/bandwidth (Definition 1).
//   - RDA: a MAERI-style reconfigurable accelerator — full resources,
//     per-layer choice of the best dataflow, paid for with a
//     flexible-hardware energy overhead and a per-layer
//     reconfiguration penalty.
package accel

import (
	"fmt"
	"math"
)

// Class is an accelerator resource budget (Table IV).
type Class struct {
	Name           string
	PEs            int
	BWGBps         float64
	GlobalBufBytes int64
}

// The paper's three deployment scenarios (Table IV).
var (
	Edge   = Class{Name: "edge", PEs: 1024, BWGBps: 16, GlobalBufBytes: 4 << 20}
	Mobile = Class{Name: "mobile", PEs: 4096, BWGBps: 64, GlobalBufBytes: 8 << 20}
	Cloud  = Class{Name: "cloud", PEs: 16384, BWGBps: 256, GlobalBufBytes: 16 << 20}
)

// Classes returns the three Table IV classes in scale order.
func Classes() []Class { return []Class{Edge, Mobile, Cloud} }

// ParseClass resolves a class by name.
func ParseClass(name string) (Class, error) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("accel: unknown accelerator class %q (want edge, mobile or cloud)", name)
}

// Validate reports whether the class describes a usable budget.
func (c Class) Validate() error {
	if c.PEs < 1 {
		return fmt.Errorf("accel: class %q: PEs must be >= 1", c.Name)
	}
	if !(c.BWGBps > 0) || math.IsInf(c.BWGBps, 1) {
		return fmt.Errorf("accel: class %q: bandwidth must be positive and finite", c.Name)
	}
	if c.GlobalBufBytes < 1024 {
		return fmt.Errorf("accel: class %q: global buffer must be >= 1 KiB", c.Name)
	}
	return nil
}
