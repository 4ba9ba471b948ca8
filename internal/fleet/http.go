package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/serve"
	"repro/internal/trace"
)

// DispatchAck acknowledges an asynchronous fleet submission.
type DispatchAck struct {
	ID      int64        `json:"id"`
	Replica int          `json:"replica"`
	Status  serve.Status `json:"status"`
}

// DispatchRecord is a request's final record plus the replica that
// served it.
type DispatchRecord struct {
	serve.Record
	Replica int `json:"replica"`
}

// httpError is the JSON error body of every endpoint. Code is a
// stable machine-readable discriminator: bad_request, not_found,
// method_not_allowed, too_large, timeout, queue_full, shed, draining,
// no_replicas, internal (500: a reply that could not be encoded).
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError emits the JSON error body, adding a Retry-After header
// to retryable rejections: retryAfter seconds when positive, else 1
// second for any 429.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	setRetryAfter(w, status, retryAfter)
	writeJSON(w, status, httpError{Error: msg, Code: code})
}

// writeSubmitError is writeError for POST /v1/requests: the same
// headers, with the body compact and appended to b.
func writeSubmitError(w http.ResponseWriter, b []byte, status int, code, msg string, retryAfter int) {
	setRetryAfter(w, status, retryAfter)
	writeLine(w, status, appendHTTPError(b, httpError{Error: msg, Code: code}))
}

func setRetryAfter(w http.ResponseWriter, status, retryAfter int) {
	if retryAfter < 1 && status == http.StatusTooManyRequests {
		retryAfter = 1
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
}

// submitErrorStatus maps a Submit error to its HTTP status, stable
// error code and Retry-After seconds: a full tenant queue or a shed
// arrival is retryable overload (429; a shed carries its own
// Retry-After), a draining fleet or one with no eligible replica is
// unavailable (503), anything else is the client's bug (400).
func submitErrorStatus(err error) (status int, code string, retryAfter int) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests, "shed", shed.RetryAfterSeconds
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full", 0
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable, "draining", 0
	case errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable, "no_replicas", 0
	}
	return http.StatusBadRequest, "bad_request", 0
}

// Handler returns the fleet's JSON-over-HTTP API:
//
//	POST /v1/requests              dispatch a request via the routing
//	                               policy (serve.SubmitRequest body;
//	                               responses carry the replica index)
//	GET  /v1/fleet/stats           fleet-wide aggregate, fault counters
//	                               and per-replica rows (health, stall,
//	                               breaker streak, pending admit faults)
//	GET  /v1/stats                 alias of /v1/fleet/stats
//	GET  /v1/fleet/decisions       the decision log: fault entries and
//	                               control steps in one seq order
//	                               (export an incident; see
//	                               ExportFaultPlan)
//	GET  /v1/fleet/repartition     control-ladder status (404 when no
//	                               controller is attached)
//	POST /v1/drain                 drain every replica, final stats
//	GET  /v1/models                servable model zoo
//	GET  /v1/healthz               liveness (replica count, policy)
//	GET  /v1/replicas/{i}/requests/{id}
//	                               replica i's per-request record
//	GET  /v1/replicas/{i}/stats    replica i's engine statistics
//	GET  /v1/replicas/{i}/schedule replica i's committed schedule
//	                               (trace JSON)
//	GET  /v1/replicas/{i}/hda      replica i's accelerator
//	GET  /v1/replicas/{i}/healthz  replica i's liveness
//
// The per-replica view is read-only: any other method under
// /v1/replicas/ is 405, because a submission or drain that bypassed
// the dispatcher would escape its accounting, capture and routing.
// Replica ids are stable across migrations (each new generation takes
// fresh ids); the view resolves the replica at request time, so a
// still-retiring replica stays inspectable until it is folded.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", f.handleSubmit)
	mux.HandleFunc("GET /v1/fleet/stats", f.handleStats)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /v1/fleet/decisions", f.handleDecisions)
	mux.HandleFunc("GET /v1/fleet/repartition", f.handleRepartition)
	mux.HandleFunc("POST /v1/drain", f.handleDrain)
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": dnn.Names()})
	})
	mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	f.replicaRoute(mux, "requests/{id}", handleReplicaLookup)
	f.replicaRoute(mux, "stats", func(w http.ResponseWriter, _ *http.Request, rep *replica) {
		writeJSON(w, http.StatusOK, rep.engine.Stats())
	})
	f.replicaRoute(mux, "schedule", func(w http.ResponseWriter, _ *http.Request, rep *replica) {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteJSON(w, rep.engine.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	f.replicaRoute(mux, "hda", func(w http.ResponseWriter, _ *http.Request, rep *replica) {
		writeJSON(w, http.StatusOK, newHDAView(rep.engine.HDA()))
	})
	f.replicaRoute(mux, "healthz", func(w http.ResponseWriter, _ *http.Request, rep *replica) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "replica": rep.id, "generation": rep.gen})
	})
	mux.HandleFunc("/v1/replicas/{replica}/{rest...}", handleReplicaOther)
	return mux
}

// writeJSON answers with v as indented JSON. It encodes before it
// sends the status line, so a value encoding/json refuses (a NaN
// float, say) is answered 500 internal, not a status with an empty
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "encoding the response: "+err.Error(), 0)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeLine answers with a compact JSON body, ended by a newline like
// every body writeJSON sends.
func writeLine(w http.ResponseWriter, status int, body []byte) {
	writeBody(w, status, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// handleSubmit answers POST /v1/requests. Every reply is compact JSON
// appended into the body's buffer (see codec.go).
func (f *Fleet) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, buf, status, err := decodeSubmit(w, r.Body)
	reply := buf[:0]
	if err != nil {
		code := "bad_request"
		if status == http.StatusRequestEntityTooLarge {
			code = "too_large"
		}
		writeSubmitError(w, reply, status, code, err.Error(), 0)
		return
	}
	ticket, err := f.Submit(req.Request)
	if err != nil {
		status, code, retryAfter := submitErrorStatus(err)
		writeSubmitError(w, reply, status, code, err.Error(), retryAfter)
		return
	}
	if !req.Wait {
		writeLine(w, http.StatusAccepted, appendAck(reply, DispatchAck{ID: ticket.ID, Replica: ticket.Replica, Status: serve.StatusQueued}))
		return
	}
	rec, err := ticket.Wait(r.Context())
	if err != nil {
		writeSubmitError(w, reply, http.StatusRequestTimeout, "timeout", err.Error(), 0)
		return
	}
	body, err := appendRecord(reply, &DispatchRecord{Record: rec, Replica: ticket.Served()})
	if err != nil {
		writeSubmitError(w, reply, http.StatusInternalServerError, "internal", "encoding the record: "+err.Error(), 0)
		return
	}
	writeLine(w, http.StatusOK, body)
}

func (f *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Stats())
}

// DecisionLog is the GET /v1/fleet/decisions payload: the decision
// log — fault-handling entries and control-ladder steps in one Seq
// order. Per-replica health and the fault counters are in GET
// /v1/fleet/stats. An operator exports the log, feeds it to
// ExportFaultPlan (heraldplay -faults), and re-runs the incident
// offline.
type DecisionLog struct {
	// Decisions is the retained log, oldest first. A live fleet's log
	// is bounded (older halves are dropped past the cap), so Seq of
	// the first entry tells a consumer whether decisions were evicted.
	Decisions []Event `json:"decisions"`
}

func (f *Fleet) handleDecisions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DecisionLog{Decisions: f.Decisions()})
}

func (f *Fleet) handleDrain(w http.ResponseWriter, r *http.Request) {
	st, err := f.Drain(r.Context())
	if err != nil {
		writeError(w, http.StatusRequestTimeout, "timeout", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"replicas":   f.Size(),
		"generation": f.Generation(),
		"policy":     f.Policy().String(),
		"uptime":     time.Since(f.start).String(), //herald:nondet wall-clock uptime is reporting-only
	})
}

// handleRepartition reports the attached controller's status:
// lifecycle state, per-rung action counts, and the last decision.
func (f *Fleet) handleRepartition(w http.ResponseWriter, r *http.Request) {
	f.ctrlMu.Lock()
	c := f.controller
	f.ctrlMu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "not_found",
			"no repartitioning controller attached (start one with fleet.NewController / heraldd -repartition)", 0)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// replicaRoute registers GET /v1/replicas/{replica}/<rest>: h serves
// it from the replica resolved by id at request time, so the view
// follows migrations and failovers.
func (f *Fleet) replicaRoute(mux *http.ServeMux, rest string, h func(http.ResponseWriter, *http.Request, *replica)) {
	mux.HandleFunc("GET /v1/replicas/{replica}/"+rest, func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("replica"))
		var rep *replica
		if err == nil {
			rep = f.replicaByID(id)
		}
		if rep == nil {
			writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf(
				"no live replica %q (the id may belong to a retired generation; the fleet is at generation %d)",
				r.PathValue("replica"), f.Generation()), 0)
			return
		}
		h(w, r, rep)
	})
}

// handleReplicaOther answers every /v1/replicas/ path no view route
// serves: 405 for a non-GET method (the view is read-only), 404 for
// an unknown view.
func handleReplicaOther(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"the per-replica view is read-only; submit and drain through POST /v1/requests and POST /v1/drain", 0)
		return
	}
	writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no replica view %q", r.PathValue("rest")), 0)
}

func handleReplicaLookup(w http.ResponseWriter, r *http.Request, rep *replica) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request id", 0)
		return
	}
	rec, ok := rep.engine.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no request %d on replica %d", id, rep.id), 0)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// hdaView is the GET /v1/replicas/{i}/hda payload: the accelerator a
// replica serves on.
type hdaView struct {
	Name  string    `json:"name"`
	Class string    `json:"class"`
	Subs  []subView `json:"sub_accelerators"`
}

type subView struct {
	Name   string  `json:"name"`
	Style  string  `json:"style"`
	PEs    int     `json:"pes"`
	BWGBps float64 `json:"bw_gbps"`
}

func newHDAView(h *accel.HDA) hdaView {
	v := hdaView{Name: h.Name, Class: h.Class.Name}
	for _, s := range h.Subs {
		v.Subs = append(v.Subs, subView{Name: s.Name, Style: s.Style.String(), PEs: s.HW.PEs, BWGBps: s.HW.BWGBps})
	}
	return v
}
