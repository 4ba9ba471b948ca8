package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to ParseSpec, the trust boundary
// of heraldplay -gen and the committed corpus. ParseSpec must never
// panic, and every spec it accepts must round-trip: its JSON encoding
// parses back to an equal spec. Seeded from the committed corpus specs.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus specs (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"f","kind":"flash","flash_at":0.9,"flash_width":0.2}`))
	f.Add([]byte(`{"name":"z","kind":"zipf","zipf_s":1}`))
	f.Add([]byte(`{"name":"u","kind":"smooth","bogus":1}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ParseSpec(bytes.NewReader(in))
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := ParseSpec(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("encoded spec %s does not parse back: %v", b, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, s)
		}
	})
}
