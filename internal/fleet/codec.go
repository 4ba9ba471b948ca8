package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/serve"
)

// The POST /v1/requests codec. A submission is the one request type
// a serving front answers per inference, so its replies are appended
// into the request's body buffer without reflection, and its body is
// decoded by a strict parser of the canonical form clients send. Both
// are pinned to encoding/json: every appended reply equals json.Marshal
// of the same value byte for byte, and any body the parser does not
// take is decoded by encoding/json as before.

// maxSubmitBody caps a POST /v1/requests body. A real submission is a
// few hundred bytes; anything past 1 MiB is refused with 413.
const maxSubmitBody = 1 << 20

// decodeSubmit reads one submission body: exactly one JSON value of
// at most maxSubmitBody bytes, followed by nothing but whitespace. On
// failure it returns the HTTP status to answer (413 or 400). It also
// returns the buffer the body was read into, which the caller may
// reuse for the reply: the decoded request shares no memory with it.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser) (serve.SubmitRequest, []byte, int, error) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, body, maxSubmitBody))
	if err == nil {
		var req serve.SubmitRequest
		if parseSubmit(buf, &req) {
			req.Normalize()
			return req, buf, 0, nil
		}
		err = io.EOF
	}
	req, status, err := decodeStream(buf, err)
	return req, buf, status, err
}

// decodeStream decodes a body the way encoding/json judged it streamed
// in: the bytes read, then the reader's error (io.EOF, or the cap's
// MaxBytesError). Where a body overflows the cap, that stream tells a
// syntax error or trailing data in the first MiB (400) from a value
// still open at the cap (413), which json.Unmarshal over the
// truncated bytes cannot.
func decodeStream(buf []byte, tail error) (serve.SubmitRequest, int, error) {
	var req serve.SubmitRequest
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), errReader{tail}))
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
		return serve.SubmitRequest{}, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return serve.SubmitRequest{}, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	req.Normalize()
	return req, 0, nil
}

// errReader is a reader that only fails, with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseSubmit decodes the canonical form of a submission body into
// req: one object of lowercase SubmitRequest keys whose values are
// escape-free printable-ASCII strings, integers that fit their field,
// or true/false, with JSON whitespace around tokens and nothing after
// the object. A repeated key keeps its last value, as in
// encoding/json. On any other body it returns false, and req must be
// discarded.
func parseSubmit(b []byte, req *serve.SubmitRequest) bool {
	s := submitScanner{b: b}
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return s.end()
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		switch string(key) {
		case "tenant":
			req.Tenant, ok = s.text()
		case "model":
			req.Model, ok = s.text()
		case "priority":
			var v int64
			v, ok = s.int()
			req.Priority = int(v)
			ok = ok && int64(req.Priority) == v
		case "sla_cycles":
			req.SLACycles, ok = s.int()
		case "arrival_cycle":
			var v int64
			v, ok = s.int()
			req.ArrivalCycle = &v
		case "wait":
			req.Wait, ok = s.bool()
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.next('}') {
			return s.end()
		}
		if !s.next(',') {
			return false
		}
	}
}

// submitScanner is parseSubmit's cursor over a body.
type submitScanner struct {
	b []byte
	i int
}

func (s *submitScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *submitScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		s.space()
		return true
	}
	return false
}

// end reports whether the body is exhausted.
func (s *submitScanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// str consumes a string of printable ASCII without escapes and
// returns its contents.
func (s *submitScanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text is str as a string.
func (s *submitScanner) text() (string, bool) {
	b, ok := s.str()
	return string(b), ok
}

// int consumes a JSON integer (no fraction, no exponent) that fits an
// int64.
func (s *submitScanner) int() (int64, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		if u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(s.b[s.i]-'0')
	}
	digits := s.i - start
	switch {
	case digits == 0 || (digits > 1 && s.b[start] == '0'):
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true // -int64(1<<63) wraps to MinInt64
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

func (s *submitScanner) bool() (v, ok bool) {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// appendAck appends a's JSON encoding to b.
func appendAck(b []byte, a DispatchAck) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), a.ID, 10)
	b = strconv.AppendInt(append(b, `,"replica":`...), int64(a.Replica), 10)
	b = appendString(append(b, `,"status":`...), string(a.Status))
	return append(b, '}')
}

// appendHTTPError appends e's JSON encoding to b.
func appendHTTPError(b []byte, e httpError) []byte {
	b = appendString(append(b, `{"error":`...), e.Error)
	b = appendString(append(b, `,"code":`...), e.Code)
	return append(b, '}')
}

// appendRecord appends r's JSON encoding to b. Like json.Marshal, it
// fails on a NaN or infinite float and then returns b unchanged.
func appendRecord(b []byte, r *DispatchRecord) ([]byte, error) {
	if !finite(r.EnergyPJ) || slices.ContainsFunc(r.Segments, func(s serve.SegmentRecord) bool { return !finite(s.EnergyPJ) }) {
		_, err := json.Marshal(r)
		return b, err
	}
	b = strconv.AppendInt(append(b, `{"id":`...), r.ID, 10)
	b = appendString(append(b, `,"tenant":`...), r.Tenant)
	b = appendString(append(b, `,"model":`...), r.Model)
	b = strconv.AppendInt(append(b, `,"priority":`...), int64(r.Priority), 10)
	b = appendString(append(b, `,"status":`...), string(r.Status))
	b = strconv.AppendInt(append(b, `,"arrival_cycle":`...), r.ArrivalCycle, 10)
	if r.SLACycles != 0 {
		b = strconv.AppendInt(append(b, `,"sla_cycles":`...), r.SLACycles, 10)
	}
	b = strconv.AppendInt(append(b, `,"instance":`...), int64(r.Instance), 10)
	b = strconv.AppendInt(append(b, `,"start_cycle":`...), r.StartCycle, 10)
	b = strconv.AppendInt(append(b, `,"finish_cycle":`...), r.FinishCycle, 10)
	b = strconv.AppendInt(append(b, `,"queue_cycles":`...), r.QueueCycles, 10)
	b = strconv.AppendInt(append(b, `,"busy_cycles":`...), r.BusyCycles, 10)
	b = strconv.AppendInt(append(b, `,"latency_cycles":`...), r.LatencyCycles, 10)
	b = appendFloat(append(b, `,"energy_pj":`...), r.EnergyPJ)
	b = strconv.AppendBool(append(b, `,"sla_violated":`...), r.SLAViolated)
	if r.Err != "" {
		b = appendString(append(b, `,"error":`...), r.Err)
	}
	if len(r.Segments) > 0 {
		b = append(b, `,"segments":[`...)
		for i := range r.Segments {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSegment(b, &r.Segments[i])
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"replica":`...), int64(r.Replica), 10)
	return append(b, '}'), nil
}

func appendSegment(b []byte, s *serve.SegmentRecord) []byte {
	b = strconv.AppendInt(append(b, `{"index":`...), int64(s.Index), 10)
	b = appendString(append(b, `,"model":`...), s.Model)
	b = strconv.AppendInt(append(b, `,"instance":`...), int64(s.Instance), 10)
	b = strconv.AppendInt(append(b, `,"replica":`...), int64(s.Replica), 10)
	b = strconv.AppendInt(append(b, `,"start_cycle":`...), s.StartCycle, 10)
	b = strconv.AppendInt(append(b, `,"finish_cycle":`...), s.FinishCycle, 10)
	b = strconv.AppendInt(append(b, `,"busy_cycles":`...), s.BusyCycles, 10)
	b = appendFloat(append(b, `,"energy_pj":`...), s.EnergyPJ)
	if s.Err != "" {
		b = appendString(append(b, `,"error":`...), s.Err)
	}
	return append(b, '}')
}

// appendString appends s as a JSON string. A string encoding/json
// would escape (HTML characters, quotes, control bytes, non-ASCII) is
// left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 up, with the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
