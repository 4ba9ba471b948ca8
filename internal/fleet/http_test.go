package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/capture"
	"repro/internal/serve"
)

func fleetServer(t *testing.T) (*Fleet, *httptest.Server) {
	t.Helper()
	f := testFleet(t, newTestCache(), 2, CostAware)
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestFleetHTTPEndToEnd drives the fleet API: dispatch (sync + async),
// fleet-wide stats, per-replica delegation, and drain.
func TestFleetHTTPEndToEnd(t *testing.T) {
	_, srv := fleetServer(t)

	var health map[string]any
	if code := doJSON(t, "GET", srv.URL+"/v1/healthz", "", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["replicas"] != float64(2) || health["policy"] != "cost-aware" {
		t.Fatalf("healthz: %v", health)
	}

	// Synchronous dispatch carries the serving replica; an explicit
	// cycle-0 arrival survives the fleet front end too.
	var rec DispatchRecord
	code := doJSON(t, "POST", srv.URL+"/v1/requests",
		`{"tenant":"arvr","model":"brq-handpose","arrival_cycle":0,"wait":true}`, &rec)
	if code != http.StatusOK || rec.Status != serve.StatusDone {
		t.Fatalf("sync dispatch: code %d rec %+v", code, rec)
	}
	if rec.Replica < 0 || rec.Replica >= 2 {
		t.Fatalf("bad replica %d", rec.Replica)
	}
	if rec.ArrivalCycle != 0 {
		t.Errorf("explicit arrival 0 rewritten to %d", rec.ArrivalCycle)
	}

	// Asynchronous dispatch acknowledges with id + replica.
	var ack DispatchAck
	if code := doJSON(t, "POST", srv.URL+"/v1/requests",
		`{"tenant":"arvr","model":"mobilenetv1","arrival_cycle":0}`, &ack); code != http.StatusAccepted {
		t.Fatalf("async dispatch: %d", code)
	}
	if ack.ID <= 0 || ack.Status != serve.StatusQueued {
		t.Fatalf("ack %+v", ack)
	}

	// The async request is inspectable through its replica's delegated
	// API (possibly still queued; both endpoints must resolve).
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/replicas/%d/healthz", srv.URL, ack.Replica), "", nil); code != http.StatusOK {
		t.Errorf("replica healthz delegation: %d", code)
	}
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/replicas/%d/requests/%d", srv.URL, ack.Replica, ack.ID), "", nil); code != http.StatusOK {
		t.Errorf("replica request-lookup delegation: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/replicas/7/healthz", "", nil); code != http.StatusNotFound {
		t.Errorf("out-of-range replica: %d, want 404", code)
	}

	var models struct {
		Models []string `json:"models"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/models", "", &models); code != http.StatusOK || len(models.Models) == 0 {
		t.Fatalf("models: %d %v", code, models)
	}

	var final Stats
	if code := doJSON(t, "POST", srv.URL+"/v1/drain", "", &final); code != http.StatusOK {
		t.Fatalf("drain: %d", code)
	}
	if final.Completed != 2 || final.Pending != 0 {
		t.Fatalf("final stats: %+v", final)
	}

	var st Stats
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/stats", "", &st); code != http.StatusOK || st.Replicas != 2 {
		t.Fatalf("fleet stats: %d %+v", code, st)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", "", &st); code != http.StatusOK {
		t.Fatalf("stats alias: %d", code)
	}

	// A drained fleet refuses new work with 503: it is going away, so
	// retrying against it is futile (429 is reserved for retryable
	// overload — full queues and shed arrivals).
	if code := doJSON(t, "POST", srv.URL+"/v1/requests",
		`{"tenant":"x","model":"mobilenetv1"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain dispatch: %d, want 503", code)
	}
}

// TestFleetHTTPTenantTraffic drives concurrent synchronous traffic
// from two tenants through the fleet, then reads it back: per-request
// lookup on the serving replica, the read-only replica views (engine
// stats, committed schedule, substrate), per-tenant fleet stats after
// drain, and the 503 a drained fleet answers.
func TestFleetHTTPTenantTraffic(t *testing.T) {
	_, srv := fleetServer(t)

	// 2 tenants × 24 synchronous submissions each, concurrently.
	const perTenant = 24
	var wg sync.WaitGroup
	records := make(chan DispatchRecord, 2*perTenant)
	fails := make(chan string, 2*perTenant)
	for tenant, model := range map[string]string{"arvr": "brq-handpose", "mlperf": "mobilenetv1"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var rec DispatchRecord
				body := fmt.Sprintf(`{"tenant":%q,"model":%q,"arrival_cycle":%d,"sla_cycles":%d,"wait":true}`,
					tenant, model, int64(i+1)*500_000, int64(1)<<50)
				if code := doJSON(t, "POST", srv.URL+"/v1/requests", body, &rec); code != http.StatusOK ||
					rec.Status != serve.StatusDone || rec.LatencyCycles <= 0 || rec.FinishCycle <= rec.StartCycle {
					fails <- fmt.Sprintf("tenant %s req %d: code %d record %+v", tenant, i, code, rec)
					return
				}
				records <- rec
			}()
		}
	}
	wg.Wait()
	close(records)
	close(fails)
	for f := range fails {
		t.Fatal(f)
	}
	var last DispatchRecord
	n := 0
	for rec := range records {
		n++
		last = rec
	}
	if n != 2*perTenant {
		t.Fatalf("%d completions, want %d", n, 2*perTenant)
	}

	// The read-only replica views of the replica that served the last
	// request: the request itself, engine stats, the committed schedule
	// and the substrate.
	base := fmt.Sprintf("%s/v1/replicas/%d", srv.URL, last.Replica)
	var rec serve.Record
	if code := doJSON(t, "GET", fmt.Sprintf("%s/requests/%d", base, last.ID), "", &rec); code != http.StatusOK || rec.Status != serve.StatusDone {
		t.Fatalf("lookup %d: code %d %+v", last.ID, code, rec)
	}
	var rst serve.Stats
	if code := doJSON(t, "GET", base+"/stats", "", &rst); code != http.StatusOK || rst.Completed == 0 {
		t.Fatalf("replica stats: code %d %+v", code, rst)
	}
	var schedule struct {
		Assignments []map[string]any `json:"assignments"`
	}
	if code := doJSON(t, "GET", base+"/schedule", "", &schedule); code != http.StatusOK || len(schedule.Assignments) == 0 {
		t.Fatalf("replica schedule: code %d, %d assignments", code, len(schedule.Assignments))
	}
	var hda hdaView
	if code := doJSON(t, "GET", base+"/hda", "", &hda); code != http.StatusOK || len(hda.Subs) != 2 || hda.Class != "edge" {
		t.Fatalf("replica hda: code %d %+v", code, hda)
	}

	var final Stats
	if code := doJSON(t, "POST", srv.URL+"/v1/drain", "", &final); code != http.StatusOK {
		t.Fatalf("drain: %d", code)
	}
	if final.Completed != 2*perTenant || final.Pending != 0 || len(final.Tenants) != 2 {
		t.Fatalf("final stats: %+v", final)
	}
	for _, ts := range final.Tenants {
		if ts.Completed != perTenant || ts.P95LatencyCycles <= 0 {
			t.Errorf("tenant %s: %+v", ts.Tenant, ts)
		}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/requests",
		`{"tenant":"x","model":"resnet50"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain dispatch: %d, want 503", code)
	}
}

// TestFleetHTTPArrivalCycleZero: an explicit "arrival_cycle":0 is a
// deterministic cycle-0 arrival (replay traces depend on it), while an
// omitted field still means "now".
func TestFleetHTTPArrivalCycleZero(t *testing.T) {
	_, srv := fleetServer(t)
	for _, tc := range []struct {
		body string
		zero bool
	}{
		{`{"tenant":"replay","model":"mobilenetv1","arrival_cycle":0,"wait":true}`, true},
		{`{"tenant":"replay","model":"mobilenetv1","wait":true}`, false},
	} {
		var rec DispatchRecord
		if code := doJSON(t, "POST", srv.URL+"/v1/requests", tc.body, &rec); code != http.StatusOK || rec.Status != serve.StatusDone {
			t.Fatalf("%s: code %d %+v", tc.body, code, rec)
		}
		if tc.zero && rec.ArrivalCycle != 0 {
			t.Errorf("explicit arrival_cycle 0 rewritten to %d; replay traces are not reproducible", rec.ArrivalCycle)
		}
		if !tc.zero && rec.ArrivalCycle <= 0 {
			t.Errorf("omitted arrival_cycle should mean now, got %d", rec.ArrivalCycle)
		}
	}
}

// TestFleetHTTPBadRequests covers malformed dispatches.
func TestFleetHTTPBadRequests(t *testing.T) {
	_, srv := fleetServer(t)
	var e httpError
	if code := doJSON(t, "POST", srv.URL+"/v1/requests", `{not json`, &e); code != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("garbage body: %d %+v, want 400 bad_request", code, e)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/requests", `{"tenant":"a","model":"not-a-model"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown model: %d, want 400", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/requests", `{"model":"mobilenetv1"}`, nil); code != http.StatusBadRequest {
		t.Errorf("missing tenant: %d, want 400", code)
	}
}

// manualServer serves a one-replica manual fleet: nothing admits on
// its own, so its counters move only with submissions.
func manualServer(t *testing.T) (*Fleet, *httptest.Server) {
	t.Helper()
	opts := DefaultOptions()
	opts.Serve.Manual = true
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

// TestFleetHTTPBodyTooLarge: a submission body past the 1 MiB cap is
// 413 too_large and counts nothing.
func TestFleetHTTPBodyTooLarge(t *testing.T) {
	f, _ := manualServer(t)
	h := f.Handler()
	for _, body := range []string{
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0,"pad":"` + strings.Repeat("x", maxSubmitBody) + `"}`,
		// Whitespace after the object counts against the cap too.
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0}` + strings.Repeat(" ", maxSubmitBody),
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/requests", strings.NewReader(body)))
		var e httpError
		if err := json.NewDecoder(rr.Body).Decode(&e); err != nil || rr.Code != http.StatusRequestEntityTooLarge || e.Code != "too_large" {
			t.Errorf("%d-byte body: %d %+v (%v), want 413 too_large", len(body), rr.Code, e, err)
		}
	}
	if st := f.Stats(); st.Submitted != 0 || st.Rejected != 0 {
		t.Errorf("oversized bodies counted: %+v", st)
	}
}

// TestFleetHTTPTrailingData: anything but whitespace after the request
// object is 400 bad_request and counts nothing; trailing whitespace is
// fine.
func TestFleetHTTPTrailingData(t *testing.T) {
	f, srv := manualServer(t)
	const obj = `{"tenant":"a","model":"mobilenetv1","arrival_cycle":0}`
	for _, tail := range []string{` {"tenant":"b"}`, `x`, `}`, `[]`, ` "`, `0`} {
		var e httpError
		if code := doJSON(t, "POST", srv.URL+"/v1/requests", obj+tail, &e); code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("trailing %q: %d %+v, want 400 bad_request", tail, code, e)
		}
	}
	if st := f.Stats(); st.Submitted != 0 || st.Rejected != 0 {
		t.Errorf("bodies with trailing data counted: %+v", st)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/requests", obj+" \n\t\r\n", nil); code != http.StatusAccepted {
		t.Errorf("trailing whitespace: %d, want 202", code)
	}
}

// statCounters is a Stats snapshot without its wall-clock readings.
func statCounters(st Stats) Stats {
	st.UptimeSeconds = 0
	for i := range st.PerReplica {
		st.PerReplica[i].Engine.UptimeSeconds = 0
	}
	return st
}

// decodeSubmitReference is the reference submission decoder: a
// json.Decoder straight over the capped body, then a Token that must
// be EOF. FuzzSubmitRequest holds decodeSubmit, which buffers the body
// and parses the canonical form itself, to it.
func decodeSubmitReference(w http.ResponseWriter, body io.ReadCloser) (serve.SubmitRequest, int, error) {
	var req serve.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxSubmitBody))
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = tail
			if err == nil {
				err = errors.New("trailing data after the request object")
			}
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return req, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	req.Normalize()
	return req, 0, nil
}

// FuzzSubmitRequest drives POST /v1/requests bodies through the
// fleet's handler. Properties: no panic; decodeSubmit answers every
// body with the status of decodeSubmitReference (0, 400 or 413) and,
// when it decodes, the same SubmitRequest; a body that decodes
// re-encodes and decodes to the same SubmitRequest after Normalize; a
// body that does not decode is answered 400 or 413 and leaves every
// Stats counter unchanged. Seeds are the scenario corpus's trace
// entries rendered as bodies, plus valid bodies outside the canonical
// form the fast parser takes, and bodies at and past the size cap.
func FuzzSubmitRequest(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.trace.jsonl")
	if err != nil || len(paths) == 0 {
		f.Fatalf("scenario traces: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		tr, err := capture.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range tr.Entries[:min(3, len(tr.Entries))] {
			arrival := e.ArrivalCycle
			body, err := json.Marshal(serve.SubmitRequest{Request: e.Request(), ArrivalCycle: &arrival, Wait: e.Priority > 0})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	for _, seed := range []string{``, `{}`, `null`, `{"tenant":"a","model":"mobilenetv1"} x`, `{"arrival_cycle":-1}`,
		`{"Tenant":"a","model":"mobilenetv1","arrival_cycle":0}`,
		`{"tenant":"a\u0062","model":"mobile\/netv1","arrival_cycle":0}`,
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":null}`,
		`{"tenant":"a","tenant":"b","model":"mobilenetv1","arrival_cycle":5,"arrival_cycle":7,"wait":true,"wait":false}`,
		`{"tenant":"a","model":"mobilenetv1","extra":{"nested":[1,2.5,{"x":null}]},"arrival_cycle":0}`,
		`{"tenant":"a","model":"mobilenetv1","priority":1.0}`,
		`{"tenant":"a","model":"mobilenetv1","sla_cycles":1e3}`,
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":9223372036854775808}`,
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":-9223372036854775808,"priority":-0}`,
		`{"tenant":"a","model":"mobilenetv1","sla_cycles":01}`,
		` {"tenant" : "a" ,"model":"mobilenetv1", "wait" : tru}`,
	} {
		f.Add([]byte(seed))
	}
	// Bodies exactly at the cap and one byte past it, once as a value
	// still open at the cap (413) and once with trailing data inside
	// it (400).
	pad := func(obj string, n int) []byte { return []byte(obj + strings.Repeat(" ", n-len(obj))) }
	f.Add(pad(`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0}`, maxSubmitBody))
	f.Add(pad(`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0}`, maxSubmitBody+1))
	f.Add(pad(`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0} x`, maxSubmitBody+1))

	cache, hda := newTestCache(), testHDA(f)
	var (
		fl *Fleet
		h  http.Handler
	)
	fresh := func(t testing.TB) {
		opts := DefaultOptions()
		opts.Serve.Manual = true // counters move only with submissions
		var err error
		if fl, err = Replicated(cache, hda, 1, opts); err != nil {
			t.Fatal(err)
		}
		h = fl.Handler()
	}
	fresh(f)
	// A waiting submission on a manual fleet would block forever; a
	// cancelled request context answers it 408 at once.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		if fl.Stats().Submitted >= 64 { // bound the queued backlog
			fresh(t)
		}
		before := statCounters(fl.Stats())
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/requests", bytes.NewReader(body)).WithContext(cancelled))

		req, _, status, err := decodeSubmit(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		ref, refStatus, refErr := decodeSubmitReference(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if status != refStatus || (err == nil && !reflect.DeepEqual(req, ref)) {
			t.Fatalf("decodeSubmit: status %d %+v (%v); reference: status %d %+v (%v)", status, req, err, refStatus, ref, refErr)
		}
		if err != nil {
			if rr.Code != status || (status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("undecodable body answered %d, decoder says %d (%v)", rr.Code, status, err)
			}
			if after := statCounters(fl.Stats()); !reflect.DeepEqual(before, after) {
				t.Fatalf("undecodable body moved the counters:\nbefore %+v\nafter  %+v", before, after)
			}
			return
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", req, err)
		}
		again, _, _, err := decodeSubmit(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(wire)))
		if err != nil || !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip: %+v -> %s -> %+v (%v)", req, wire, again, err)
		}
	})
}

// TestFleetHTTPReplicaBadRequests covers malformed lookups on the
// per-replica view: a non-numeric id is 400, an unknown id and an
// unknown view are 404.
func TestFleetHTTPReplicaBadRequests(t *testing.T) {
	_, srv := fleetServer(t)
	if code := doJSON(t, "GET", srv.URL+"/v1/replicas/0/requests/abc", "", nil); code != http.StatusBadRequest {
		t.Errorf("non-numeric id: %d, want 400", code)
	}
	var e httpError
	if code := doJSON(t, "GET", srv.URL+"/v1/replicas/0/requests/999999", "", &e); code != http.StatusNotFound || e.Code != "not_found" {
		t.Errorf("unknown id: %d %+v, want 404 not_found", code, e)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/replicas/0/nope", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown replica view: %d, want 404", code)
	}
}

// TestFleetHTTPQueueFull: a full tenant queue is retryable overload,
// 429 queue_full with a Retry-After header — not 503, which tells
// clients that retrying is futile.
func TestFleetHTTPQueueFull(t *testing.T) {
	opts := DefaultOptions()
	opts.Serve.MaxQueue = 1
	opts.Serve.Manual = true // nothing admits, so the queue stays full
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	body := `{"tenant":"a","model":"mobilenetv1","arrival_cycle":0}`
	if code := doJSON(t, "POST", srv.URL+"/v1/requests", body, nil); code != http.StatusAccepted {
		t.Fatalf("first submission: %d, want 202", code)
	}
	resp, err := http.Post(srv.URL+"/v1/requests", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e httpError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != "queue_full" || resp.Header.Get("Retry-After") == "" {
		t.Errorf("full queue: %d %+v Retry-After %q, want 429 queue_full with Retry-After",
			resp.StatusCode, e, resp.Header.Get("Retry-After"))
	}
	if st, err := f.Drain(context.Background()); err != nil || st.Completed != 1 {
		t.Fatalf("drain: %+v %v", st, err)
	}
}

// TestFleetHTTPReplicaViewReadOnly: the per-replica view cannot submit
// or drain behind the dispatcher's back. A POST there is 405 with the
// JSON error body, fires no capture hook, counts no submission, and
// leaves the replica in service.
func TestFleetHTTPReplicaViewReadOnly(t *testing.T) {
	var accepted atomic.Int64
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.OnAccept = func(serve.Request, string) { accepted.Add(1) }
	f, err := Replicated(newTestCache(), testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	for _, rest := range []string{"requests", "drain"} {
		var e httpError
		code := doJSON(t, "POST", srv.URL+"/v1/replicas/0/"+rest,
			`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0,"wait":true}`, &e)
		if code != http.StatusMethodNotAllowed || e.Code != "method_not_allowed" || e.Error == "" {
			t.Errorf("POST /v1/replicas/0/%s: %d %+v, want 405 method_not_allowed", rest, code, e)
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Errorf("OnAccept fired %d times for rejected replica-view POSTs", n)
	}
	if st := f.Stats(); st.Submitted != 0 {
		t.Errorf("replica-view POSTs counted %d submissions", st.Submitted)
	}

	hit := make(map[int]int)
	for i := 0; i < 4; i++ {
		var rec DispatchRecord
		if code := doJSON(t, "POST", srv.URL+"/v1/requests",
			`{"tenant":"a","model":"mobilenetv1","arrival_cycle":0,"wait":true}`, &rec); code != http.StatusOK {
			t.Fatalf("dispatch %d: %d", i, code)
		}
		hit[rec.Replica]++
	}
	if hit[0] != 2 || hit[1] != 2 {
		t.Errorf("round-robin dispatches per replica %v, want 2 each (replica 0 still in service)", hit)
	}
	if n := accepted.Load(); n != 4 {
		t.Errorf("OnAccept fired %d times, want 4", n)
	}
}

// TestFleetHTTPDecisions: GET /v1/fleet/decisions exposes the
// decision log on its own, with the stall factor and admit-fail count
// surviving the JSON round trip — exactly what an operator feeds to
// ExportFaultPlan to re-run an incident offline — and a control step
// joins it in the same seq order.
func TestFleetHTTPDecisions(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = mustPlan(t,
		FaultEvent{Cycle: 100, Replica: 0, Kind: FaultStall, Factor: 4},
		FaultEvent{Cycle: 200, Replica: 1, Kind: FaultAdmitFail, Count: 2},
	)
	f := faultFleet(t, opts)
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	// An empty log decodes as an empty (not absent) array.
	var log DecisionLog
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/decisions", "", &log); code != http.StatusOK {
		t.Fatalf("decisions: %d", code)
	}
	if len(log.Decisions) != 0 {
		t.Fatalf("decision log before traffic: %+v", log.Decisions)
	}

	// Advance the fault clock past both events.
	var rec DispatchRecord
	if code := doJSON(t, "POST", srv.URL+"/v1/requests",
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":500,"wait":true}`, &rec); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/decisions", "", &log); code != http.StatusOK {
		t.Fatalf("decisions: %d", code)
	}
	if len(log.Decisions) != 2 {
		t.Fatalf("decision log: %+v", log.Decisions)
	}
	if d := log.Decisions[0]; d.Kind != "stall" || d.Factor != 4 {
		t.Errorf("stall decision lost its factor over HTTP: %+v", d)
	}
	if d := log.Decisions[1]; d.Kind != "admit-fail" || d.Count != 2 {
		t.Errorf("admit-fail decision lost its count over HTTP: %+v", d)
	}

	// A control step joins the same log, after the fault entries.
	ctrl, err := NewController(f, ControllerOptions{PEQuantum: 256})
	if err != nil {
		t.Fatal(err)
	}
	step, err := ctrl.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/fleet/decisions", "", &log); code != http.StatusOK {
		t.Fatalf("decisions: %d", code)
	}
	if len(log.Decisions) != 3 {
		t.Fatalf("decision log after a step: %+v", log.Decisions)
	}
	if d := log.Decisions[2]; d.Kind != "control" || d.Seq != 3 || d.Replica != -1 || d.Control == nil || *d.Control != step {
		t.Errorf("control entry over HTTP: %+v, want step %+v", d, step)
	}

	// The exported log reconstructs the injected plan; the control
	// entry is not part of it.
	p, err := ExportFaultPlan(log.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatFaultPlan(p), "100:0:stall:4,200:1:admit-fail:2"; got != want {
		t.Errorf("exported plan %q, want %q", got, want)
	}
}

// TestFleetHTTPStatsPendingAdmitFaults: an injected admission-failure
// burst shows on GET /v1/fleet/stats as the victim's
// pending_admit_faults, counting down as dispatches hit it; the
// replica without a burst reports an explicit 0.
func TestFleetHTTPStatsPendingAdmitFaults(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = RoundRobin
	opts.Faults = mustPlan(t, FaultEvent{Cycle: 100, Replica: 1, Kind: FaultAdmitFail, Count: 3})
	f := faultFleet(t, opts)
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	pending := func() map[int]int {
		t.Helper()
		var st struct {
			PerReplica []struct {
				Replica            int  `json:"replica"`
				PendingAdmitFaults *int `json:"pending_admit_faults"`
			} `json:"per_replica"`
		}
		if code := doJSON(t, "GET", srv.URL+"/v1/fleet/stats", "", &st); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		got := make(map[int]int)
		for _, rs := range st.PerReplica {
			if rs.PendingAdmitFaults == nil {
				t.Fatalf("replica %d: pending_admit_faults missing from /v1/fleet/stats", rs.Replica)
			}
			got[rs.Replica] = *rs.PendingAdmitFaults
		}
		return got
	}
	if got, want := pending(), map[int]int{0: 0, 1: 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending admit faults before the burst: %v, want %v", got, want)
	}

	// The first arrival past cycle 100 fires the burst; round-robin
	// hands it to replica 0, so the burst is still whole.
	submit := func(arrival int) {
		t.Helper()
		var rec DispatchRecord
		body := fmt.Sprintf(`{"tenant":"a","model":"mobilenetv1","arrival_cycle":%d,"wait":true}`, arrival)
		if code := doJSON(t, "POST", srv.URL+"/v1/requests", body, &rec); code != http.StatusOK {
			t.Fatalf("submit at %d: %d", arrival, code)
		}
	}
	submit(200)
	if got, want := pending(), map[int]int{0: 0, 1: 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending admit faults after the burst fired: %v, want %v", got, want)
	}
	// The next dispatch tries replica 1, spends one injected failure
	// and fails over to replica 0.
	submit(300)
	if got, want := pending(), map[int]int{0: 0, 1: 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending admit faults after one failed admission: %v, want %v", got, want)
	}
}
