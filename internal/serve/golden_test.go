package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_* from the current build")

// goldenSimulate are the /simulate bodies TestServeGoldenBytes pins, posted
// in order on one server: a fresh result, the same request again (cached),
// a multi-run sweep on a priced two-socket topology, and a typed rejection.
var goldenSimulate = []string{
	`{"alg":"prefix","n":64,"p":4,"seed":11}`,
	`{"alg":"prefix","n":64,"p":4,"seed":11}`,
	`{"alg":"matmul-la","n":32,"p":8,"seed":3,"runs":3,"policy":"localized","sockets":2,"cost_miss_remote":30}`,
	`{"alg":"nope","n":64,"p":4}`,
}

// goldenSpec is the batch sweep whose grid TestServeGoldenBytes pins.
const goldenSpec = `{"algs":["prefix","sort-merge"],"ns":[64],"ps":[2,4],"seeds":[5,6],"policies":["uniform","stealhalf"]}`

var elapsedMS = regexp.MustCompile(`"elapsed_ms":\d+`)

// TestServeGoldenBytes pins the exact bytes of the three result surfaces —
// /simulate bodies (elapsed_ms zeroed), a batch grid, and the /corpus
// export, both live and from a node restarted on the journal alone —
// against bodies recorded from an earlier build, so a refactor of the
// serving layer cannot change a served byte unnoticed. Regenerate with
// -update-golden only when a change to those bytes is intended.
func TestServeGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, NodeID: "golden-node", JournalDir: dir})

	var sim bytes.Buffer
	for _, body := range goldenSimulate {
		sim.Write(elapsedMS.ReplaceAll(post(s, body).Body.Bytes(), []byte(`"elapsed_ms":0`)))
	}
	sp := parseStream(t, postBatch(s, goldenSpec).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("golden batch did not finish: %+v", sp.trailer)
	}
	grid, corpus := gridBody(t, s, sp.header.Job), corpusBody(t, s)
	s.Close()
	restarted := newTestServer(t, Config{Workers: 2, NodeID: "golden-node", JournalDir: dir, WarmCache: true})

	for name, got := range map[string][]byte{
		"golden_simulate.ndjson":       sim.Bytes(),
		"golden_grid.ndjson":           grid,
		"golden_corpus.ndjson":         corpus,
		"golden_corpus_restart.ndjson": corpusBody(t, restarted),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the recorded bytes:\n got %s\nwant %s", name, got, want)
		}
	}
}
