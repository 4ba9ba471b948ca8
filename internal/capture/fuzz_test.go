package capture

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCaptureRead feeds arbitrary bytes to Read, the trust boundary of
// every replayed trace (heraldplay -trace, replay.Run). Read must never
// panic, and every trace it accepts must round-trip: Write renders it,
// and reading that back yields an equal trace. Seeded from the
// committed scenario corpus: each trace's header and first entries
// (whole traces run a few hundred lines, which slows mutation tenfold).
func FuzzCaptureRead(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.jsonl")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus traces (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(b, []byte("\n"))
		f.Add(bytes.Join(lines[:min(len(lines), 6)], nil))
	}
	f.Add([]byte(`{"herald_trace":1}` + "\n\n" + `{"tenant":"a","model":"mobilenetv1","arrival_cycle":0,"plan":"mobilenetv1/2"}`))
	f.Add([]byte(`{"herald_trace":2}`))
	f.Add([]byte(`{"herald_trace":1}` + "\n" + `{"tenant":"a","model":"m","arrival_cycle":-1}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr.Note, tr.Entries); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}
