// Package capture records accepted serving requests as a versioned
// JSONL trace — one header line, then one entry line per request in
// acceptance order — and reads such traces back for offline replay
// (internal/replay, cmd/heraldplay).
//
// A recorder is hooked into live submission via fleet.Options.OnAccept
// (or serve.Options.OnAccept for a single engine), which fires under
// the dispatch lock with the resolved arrival cycle: live-clock
// submissions are pinned to an explicit cycle at capture time, so a
// captured trace always replays deterministically even though the
// capturing run was wall-clock driven. The scenario generator
// (internal/scenario) emits the same entry format, so generated and
// captured traffic share one replay path.
package capture

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/serve"
)

// Version is the trace-format version this package writes. Readers
// reject other versions, so a format change cannot silently replay
// garbage.
const Version = 1

// header is the first line of a trace file: the format version tag
// plus an optional free-form note identifying the capture.
type header struct {
	Version int    `json:"herald_trace"`
	Note    string `json:"note,omitempty"`
}

// Entry is one accepted request: exactly the submission fields a
// replay needs to re-issue it bit-identically on the arrival_cycle
// clock. Entries appear in the trace in acceptance order, which for a
// fleet capture is the dispatch-lock order.
type Entry struct {
	// Tenant and Model name the submission.
	Tenant string `json:"tenant"`
	Model  string `json:"model"`
	// ArrivalCycle is the resolved arrival: cycle 0 is a real arrival
	// here, never a live-clock sentinel — negative arrivals are
	// resolved at capture time and rejected by the reader.
	ArrivalCycle int64 `json:"arrival_cycle"`
	// SLACycles is the request's latency contract.
	SLACycles int64 `json:"sla_cycles,omitempty"` //herald:jsonzero 0 is the no-SLA sentinel; absent means the same
	// Priority is the request's scheduling priority.
	Priority int `json:"priority,omitempty"` //herald:jsonzero zero is the default priority; absent and 0 mean the same
	// Plan is the fusion-plan id the request was admitted under
	// ("model/segments", e.g. "unet/3"); empty means unfused.
	Plan string `json:"plan,omitempty"`
}

// Request is the submission that re-issues e: the inverse of the
// mapping Recorder.OnAccept records.
func (e Entry) Request() serve.Request {
	return serve.Request{
		Tenant:       e.Tenant,
		Model:        e.Model,
		Priority:     e.Priority,
		SLACycles:    e.SLACycles,
		ArrivalCycle: e.ArrivalCycle,
	}
}

// validate rejects entries a replay could not re-submit.
func (e Entry) validate() error {
	if e.Tenant == "" || e.Model == "" {
		return fmt.Errorf("capture: entry needs tenant and model (got %+v)", e)
	}
	if e.ArrivalCycle < 0 {
		return fmt.Errorf("capture: entry for %s/%s has negative arrival %d; traces carry resolved arrivals",
			e.Tenant, e.Model, e.ArrivalCycle)
	}
	return nil
}

// Recorder streams entries to a JSONL trace. It is safe for
// concurrent use: submission hooks fire under the dispatcher's lock,
// but HTTP handlers and drain paths may race the last records, so the
// recorder serializes itself. Writes are buffered — call Flush before
// closing the underlying file (heraldd does so on graceful drain).
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	n   int64
	err error
}

// NewRecorder writes the version header and returns a recorder
// appending to w. The note is free-form capture metadata (config
// summary, capture time) stored in the header.
func NewRecorder(w io.Writer, note string) (*Recorder, error) {
	r := &Recorder{w: bufio.NewWriter(w)}
	if err := r.writeLine(header{Version: Version, Note: note}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Recorder) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	if _, err := r.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	return nil
}

// Record appends one entry. The first write error is sticky: every
// later Record and Flush reports it, so a capture with a hole cannot
// pass for complete.
func (r *Recorder) Record(e Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	if err := e.validate(); err != nil {
		r.err = err
		return err
	}
	if err := r.writeLine(e); err != nil {
		r.err = err
		return err
	}
	r.n++
	return nil
}

// OnAccept records one accepted submission; it has the signature of
// fleet.Options.OnAccept and serve.Options.OnAccept, so a capture hooks
// in as opts.OnAccept = rec.OnAccept. A write error is sticky and
// surfaces at Flush.
func (r *Recorder) OnAccept(req serve.Request, plan string) {
	_ = r.Record(Entry{
		Tenant: req.Tenant, Model: req.Model, ArrivalCycle: req.ArrivalCycle,
		SLACycles: req.SLACycles, Priority: req.Priority, Plan: plan,
	})
}

// Count returns the number of entries recorded so far.
func (r *Recorder) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Flush drains the write buffer to the underlying writer.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	if err := r.w.Flush(); err != nil {
		r.err = fmt.Errorf("capture: %w", err)
		return r.err
	}
	return nil
}

// Trace is a fully-loaded trace: the header note plus every entry in
// acceptance order.
type Trace struct {
	Note    string
	Entries []Entry
}

// Read parses a JSONL trace, validating the version header and every
// entry. Blank lines are ignored, so hand-edited traces stay legal.
func Read(rd io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		return nil, fmt.Errorf("capture: empty trace (no header)")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("capture: bad header: %w", err)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("capture: trace version %d, this build reads %d", h.Version, Version)
	}
	t := &Trace{Note: h.Note}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("capture: line %d: %w", line, err)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		t.Entries = append(t.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return t, nil
}

// ReadFile loads a trace file (see Read).
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write renders a trace through a Recorder, so generated traces
// (internal/scenario, heraldplay -gen) and live captures are
// byte-compatible.
func Write(w io.Writer, note string, entries []Entry) error {
	rec, err := NewRecorder(w, note)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := rec.Record(e); err != nil {
			return err
		}
	}
	return rec.Flush()
}

// WriteFile writes a trace file (see Write), creating or truncating
// path.
func WriteFile(path, note string, entries []Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	if err := Write(f, note, entries); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	return nil
}
