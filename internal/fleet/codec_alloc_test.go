//go:build !race

package fleet

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
)

// TestSubmitCodecAllocs pins the submit codec's allocations: encoding
// a record into a buffer with room allocates nothing, and decoding a
// canonical body allocates only the body buffer, the body limiter, the
// two strings and the arrival pointer.
//
// (Excluded under -race: the race runtime adds bookkeeping
// allocations that AllocsPerRun would count.)
func TestSubmitCodecAllocs(t *testing.T) {
	r := fusedRecord()
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendRecord(buf[:0], &r) }); n != 0 {
		t.Errorf("appendRecord allocates %.0f times per record, want 0", n)
	}

	const maxDecodeAllocs = 5
	body := []byte(`{"tenant":"arvr","model":"brq-handpose","sla_cycles":500000000,"arrival_cycle":0,"wait":true}`)
	rd := bytes.NewReader(body)
	rc, w := io.NopCloser(rd), httptest.NewRecorder()
	n := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if _, _, _, err := decodeSubmit(w, rc); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxDecodeAllocs {
		t.Errorf("decodeSubmit allocates %.0f times per canonical body, want at most %d", n, maxDecodeAllocs)
	}
}
