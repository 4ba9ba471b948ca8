package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayMatchesGolden runs heraldplay's own flag path on three
// digest-golden arms and checks that the digest it prints hashes to
// the arm's line in internal/replay/testdata/digests.golden.
func TestReplayMatchesGolden(t *testing.T) {
	golden := goldenDigests(t)
	ladder := []string{"-window", "16", "-pe-units", "4", "-bw-units", "2", "-mix-half-life", "64",
		"-max-queue", "4096", "-repartition"}
	for _, arm := range []struct {
		key  string
		args []string
	}{
		{"zipf faults-w8", []string{"-faults", "1000000:0:crash,2000000:0:recover", "-window", "8"}},
		{"flipflop ladder", ladder},
		{"flipflop ladder-q256", append(ladder, "-elastic-quantum", "256")},
	} {
		want, ok := golden[arm.key]
		if !ok {
			t.Fatalf("no %q line in the digest golden", arm.key)
		}
		trace, _, _ := strings.Cut(arm.key, " ")
		args := append([]string{"-trace", filepath.Join("..", "..", "testdata", "scenarios", trace+".trace.jsonl"),
			"-replicas", "3"}, arm.args...)
		var out bytes.Buffer
		if code := run(args, &out); code != 0 {
			t.Fatalf("%s: heraldplay %v exited %d", arm.key, args, code)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: heraldplay digest %s, golden %s", arm.key, got[:12], want[:12])
		}
	}
}

// goldenDigests reads the digest golden's "trace arm hash" lines.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "internal", "replay", "testdata", "digests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if i := strings.LastIndexByte(sc.Text(), ' '); i > 0 {
			digests[sc.Text()[:i]] = sc.Text()[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

// TestFuseAtEngineLayer: heraldplay -replicas 2 -fuse replays on two
// copies of one partition, so the replica engines fuse — the layer
// heraldd serves the same flags at (cmd/heraldd
// TestServeFuseAtEngineLayer): every request of the corpus trace is
// fused, and no segment crosses replicas.
func TestFuseAtEngineLayer(t *testing.T) {
	args := []string{"-trace", filepath.Join("..", "..", "testdata", "scenarios", "zipf.trace.jsonl"),
		"-replicas", "2", "-fuse", "-window", "16"}
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("heraldplay %v exited %d", args, code)
	}
	var d struct {
		Counters struct {
			Submitted            int64 `json:"submitted"`
			CrossReplicaHandoffs int64 `json:"cross_replica_handoffs"`
			Segments             struct {
				FusedRequests int64 `json:"fused_requests"`
			} `json:"segments"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	c := d.Counters
	if c.Segments.FusedRequests == 0 || c.Segments.FusedRequests != c.Submitted || c.CrossReplicaHandoffs != 0 {
		t.Errorf("%d submitted, %d fused, %d cross-replica handoffs; want every request fused in its engine",
			c.Submitted, c.Segments.FusedRequests, c.CrossReplicaHandoffs)
	}
}
