package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// fusedRecord is a done, fused reply: two segments, one of them
// carrying an error.
func fusedRecord() DispatchRecord {
	return DispatchRecord{
		Record: serve.Record{
			ID: 9, Tenant: "arvr", Model: "unet", Priority: 2, Status: serve.StatusDone,
			ArrivalCycle: 1000, SLACycles: 5_000_000, Instance: 3, StartCycle: 1200, FinishCycle: 90_000,
			QueueCycles: 200, BusyCycles: 70_000, LatencyCycles: 89_000, EnergyPJ: 4.25e9,
			Segments: []serve.SegmentRecord{
				{Index: 0, Model: "unet[0:5]", Instance: 3, Replica: 1, StartCycle: 1200, FinishCycle: 40_000, BusyCycles: 30_000, EnergyPJ: 2e9},
				{Index: 1, Model: "unet[5:9]", Instance: 4, Replica: 0, StartCycle: 41_000, FinishCycle: 90_000, BusyCycles: 40_000, EnergyPJ: 2.25e9, Err: "segment failed"},
			},
		},
		Replica: 1,
	}
}

// fillNonZero sets every exported field under v to a distinct non-zero
// value, recursing into structs and giving each slice two elements. A
// kind it does not know fails the test: a field of a new kind needs
// the encoder and this filler taught together.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fillNonZero(t, s.Index(0), n)
		fillNonZero(t, s.Index(1), n)
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillNonZero: no value for %s", v.Type())
	}
}

// TestSubmitCodecMatchesMarshal is the append encoder's oracle: every
// submit reply shape encodes to json.Marshal's bytes, byte for byte,
// and the handler sends those bytes as one newline-terminated line.
func TestSubmitCodecMatchesMarshal(t *testing.T) {
	done := serve.Record{ID: 1, Tenant: "arvr", Model: "brq-handpose", Status: serve.StatusDone, BusyCycles: 5000, LatencyCycles: 6000, EnergyPJ: 1.5e6}
	failed := serve.Record{ID: 2, Tenant: "arvr", Model: "resnet50", Status: serve.StatusFailed, ArrivalCycle: 77, SLACycles: 100, Err: "no sub-accelerator fits layer conv1"}
	var full DispatchRecord
	n := 0
	fillNonZero(t, reflect.ValueOf(&full).Elem(), &n)

	records := map[string]DispatchRecord{
		"done":   {Record: done, Replica: 0},
		"failed": {Record: failed, Replica: 1},
		"fused":  fusedRecord(),
		"full":   full,
	}
	for _, s := range []string{"<b>&amp;", `say "hi"`, `C:\dir`, "nul\x00 us\x1f del\x7f", "line\u2028sep\u2029", "bad\xffutf8", "naïve", ""} {
		r := fusedRecord()
		r.Tenant, r.Model, r.Err, r.Status = s, s, s, serve.Status(s)
		r.Segments[0].Model, r.Segments[1].Err = s, s
		records[fmt.Sprintf("string %q", s)] = r
	}
	for _, f := range []float64{0, 1e-7, 1e-6, 1e20, 1e21, -3.5, 123456789.125, 5e-324, math.MaxFloat64, -1e-300} {
		r := fusedRecord()
		r.EnergyPJ, r.Segments[1].EnergyPJ = f, -f
		records[fmt.Sprintf("float %g", f)] = r
	}
	for name, r := range records {
		got, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMarshal(t, name, got, &r)
	}

	checkMarshal(t, "ack", appendAck(nil, DispatchAck{ID: 42, Replica: 1, Status: serve.StatusQueued}), DispatchAck{ID: 42, Replica: 1, Status: serve.StatusQueued})
	for _, e := range []httpError{{Error: "tenant queue full", Code: "queue_full"}, {Error: `bad request body: invalid character '<' in "x"`, Code: "bad_request"}, {}} {
		checkMarshal(t, "error "+e.Code, appendHTTPError(nil, e), e)
	}

	// The encoder appends: what b already holds stays in front.
	if got, _ := appendRecord([]byte("prefix"), &full); !bytes.HasPrefix(got, []byte("prefix{")) {
		t.Errorf("appendRecord dropped the buffer's contents: %.20q", got)
	}
	// Like json.Marshal, a non-finite float is an error.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		r := fusedRecord()
		r.Segments[1].EnergyPJ = bad
		if got, err := appendRecord([]byte("x"), &r); err == nil || string(got) != "x" {
			t.Errorf("energy %v: %q, %v; want an error and b unchanged", bad, got, err)
		}
	}

	t.Run("handler", func(t *testing.T) {
		h := testFleet(t, newTestCache(), 2, CostAware).Handler()
		for body, want := range map[string]any{
			`{"tenant":"arvr","model":"brq-handpose","arrival_cycle":0,"wait":true}`: &DispatchRecord{},
			`{"tenant":"arvr","model":"brq-handpose","arrival_cycle":0}`:             &DispatchAck{},
			`{"tenant":"arvr","model":"not-a-model"}`:                                &httpError{},
			`{"tenant":"arvr"`: &httpError{},
		} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/requests", strings.NewReader(body)))
			if err := json.Unmarshal(rr.Body.Bytes(), want); err != nil {
				t.Fatalf("%s: %d %q: %v", body, rr.Code, rr.Body, err)
			}
			line, ok := bytes.CutSuffix(rr.Body.Bytes(), []byte("\n"))
			if !ok || bytes.ContainsRune(line, '\n') || rr.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s: reply %q (Content-Type %q) is not one JSON line", body, rr.Body, rr.Header().Get("Content-Type"))
			}
			checkMarshal(t, body, line, want)
		}
	})
}

func checkMarshal(t *testing.T, name string, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses is
// answered 500 internal with the JSON error body, not a 200 with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]float64{"x": math.NaN()})
	var e httpError
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || rr.Code != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("unencodable value: %d %q (%v), want 500 internal", rr.Code, rr.Body, err)
	}
}

// BenchmarkSubmitCodec times the submit path's codec alone: encode
// appends a fused done record into a reused buffer, decode reads and
// parses a canonical body.
func BenchmarkSubmitCodec(b *testing.B) {
	b.Run("encode", func(b *testing.B) {
		r := fusedRecord()
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for b.Loop() {
			buf, _ = appendRecord(buf[:0], &r)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode", func(b *testing.B) {
		body := []byte(`{"tenant":"arvr","model":"brq-handpose","sla_cycles":500000000,"arrival_cycle":123456,"wait":true}`)
		rd := bytes.NewReader(body)
		rc, w := io.NopCloser(rd), httptest.NewRecorder()
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			rd.Reset(body)
			if _, _, _, err := decodeSubmit(w, rc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
