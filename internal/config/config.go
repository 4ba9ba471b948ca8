// Package config loads and saves experiment setups — accelerator
// descriptions and workload compositions — as JSON, so the CLI tools
// and downstream users can define scenarios without writing Go. The
// schema mirrors the paper's vocabulary: classes (Table IV),
// partitions (Definition 1), workload entries (Table II). It also holds
// the command-line plumbing the binaries share (cli.go): the serving
// flag family heraldd and heraldplay both bind (BindServing, embedding
// the control ladder's BindLadder) — the one place those flags become
// replica HDAs and fleet.Options — and the -partition, -styles,
// -strategy, -objective and workload-name parsers.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/workload"
)

// File is the top-level JSON document.
type File struct {
	// Class selects a named Table IV class ("edge", "mobile", "cloud")
	// or, if Custom is set, a custom budget.
	Class  string       `json:"class,omitempty"`
	Custom *CustomClass `json:"custom_class,omitempty"`

	// Partitions defines the HDA's sub-accelerators. Empty means the
	// caller runs a DSE instead of a fixed design.
	Partitions []Partition `json:"partitions,omitempty"`

	// Workload composes model instances.
	Workload Workload `json:"workload"`
}

// CustomClass is a user-defined resource budget.
type CustomClass struct {
	Name        string  `json:"name"`
	PEs         int     `json:"pes"`
	BWGBps      float64 `json:"bw_gbps"`
	GlobalBufMB int     `json:"global_buf_mib"`
}

// Partition is one sub-accelerator share.
type Partition struct {
	Style  string  `json:"style"`
	PEs    int     `json:"pes"`
	BWGBps float64 `json:"bw_gbps"`
}

// Workload is a named list of entries.
type Workload struct {
	Name    string  `json:"name"`
	Entries []Entry `json:"entries"`
}

// Entry requests batches of one zoo model.
type Entry struct {
	Model   string `json:"model"`
	Batches int    `json:"batches"`
}

// Load reads and validates a config file.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a config document from r.
func Read(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if _, err := file.BuildWorkload(); err != nil {
		return nil, err
	}
	if _, err := file.BuildClass(); err != nil {
		return nil, err
	}
	if len(file.Partitions) > 0 {
		if _, err := file.BuildHDA("config"); err != nil {
			return nil, err
		}
	}
	return &file, nil
}

// Write serializes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// BuildClass resolves the accelerator class.
func (f *File) BuildClass() (accel.Class, error) {
	if f.Custom != nil {
		c := accel.Class{
			Name:           f.Custom.Name,
			PEs:            f.Custom.PEs,
			BWGBps:         f.Custom.BWGBps,
			GlobalBufBytes: int64(f.Custom.GlobalBufMB) << 20,
		}
		if c.Name == "" {
			c.Name = "custom"
		}
		if err := c.Validate(); err != nil {
			return accel.Class{}, err
		}
		return c, nil
	}
	if f.Class == "" {
		return accel.Class{}, fmt.Errorf("config: neither class nor custom_class given")
	}
	return accel.ParseClass(f.Class)
}

// BuildWorkload constructs the workload.
func (f *File) BuildWorkload() (*workload.Workload, error) {
	if len(f.Workload.Entries) == 0 {
		return nil, fmt.Errorf("config: workload %q has no entries", f.Workload.Name)
	}
	name := f.Workload.Name
	if name == "" {
		name = "config-workload"
	}
	entries := make([]workload.Entry, len(f.Workload.Entries))
	for i, e := range f.Workload.Entries {
		entries[i] = workload.Entry{Model: e.Model, Batches: e.Batches}
	}
	return workload.New(name, entries)
}

// BuildHDA constructs the fixed HDA (requires Partitions).
func (f *File) BuildHDA(name string) (*accel.HDA, error) {
	if len(f.Partitions) == 0 {
		return nil, fmt.Errorf("config: no partitions defined")
	}
	class, err := f.BuildClass()
	if err != nil {
		return nil, err
	}
	parts := make([]accel.Partition, len(f.Partitions))
	for i, p := range f.Partitions {
		style, err := dataflow.ParseStyle(p.Style)
		if err != nil {
			return nil, err
		}
		parts[i] = accel.Partition{Style: style, PEs: p.PEs, BWGBps: p.BWGBps}
	}
	return accel.New(name, class, parts)
}
