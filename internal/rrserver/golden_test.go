package rrserver

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

var update = flag.Bool("update", false, "rewrite the golden response files under testdata")

// exchange is one recorded HTTP request and the server's exact answer.
type exchange struct {
	Request string `json:"request"` // "METHOD /path?query"
	Body    string `json:"body,omitempty"`
	Status  int    `json:"status"`
	ETag    string `json:"etag,omitempty"`
	Reply   string `json:"reply"`
}

// goldenReports disguises a seeded stream of private values drawn from
// prior through scheme, so every run ingests the identical reports.
func goldenReports(t *testing.T, scheme rr.Scheme, prior []float64, n int, seed uint64) []int {
	t.Helper()
	alias, err := randx.NewAlias(prior)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(seed)
	values := make([]int, n)
	for i := range values {
		values[i] = alias.Draw(rng)
	}
	reports := make([]int, n)
	if err := scheme.DisguiseBatchInto(reports, values, seed+1, 1); err != nil {
		t.Fatal(err)
	}
	return reports
}

// replay sends each request in order against base and records the answers.
func replay(t *testing.T, base string, requests []exchange) []exchange {
	t.Helper()
	out := make([]exchange, len(requests))
	for i, ex := range requests {
		method, path, _ := strings.Cut(ex.Request, " ")
		req, err := http.NewRequest(method, base+path, strings.NewReader(ex.Body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		ex.Status, ex.ETag, ex.Reply = resp.StatusCode, resp.Header.Get("ETag"), string(reply)
		out[i] = ex
	}
	return out
}

// checkGolden compares the recorded exchanges with testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []exchange) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []exchange
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d exchanges, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s:\n got HTTP %d etag %q %s\nwant HTTP %d etag %q %s",
				want[i].Request, got[i].Status, got[i].ETag, got[i].Reply,
				want[i].Status, want[i].ETag, want[i].Reply)
		}
	}
}

// batchBodies splits reports into POST /v1/reports exchanges.
func batchBodies(t *testing.T, reports []int, size int) []exchange {
	t.Helper()
	var out []exchange
	for lo := 0; lo < len(reports); lo += size {
		hi := min(lo+size, len(reports))
		body, err := json.Marshal(map[string][]int{"reports": reports[lo:hi]})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, exchange{Request: "POST /v1/reports", Body: string(body)})
	}
	return out
}

// TestGoldenDenseResponses pins the exact bodies and statuses of a dense
// Warner deployment's query API over a seeded report stream: full-domain
// estimates with and without a margin projection, heavy hitters, the
// scheme document and the error answers.
func TestGoldenDenseResponses(t *testing.T) {
	m := mustWarner(t, 6, 0.7)
	_, _, base := startService(t, Config{Scheme: m})
	reports := goldenReports(t, m, []float64{0.3, 0.25, 0.2, 0.12, 0.08, 0.05}, 4000, 17)

	requests := []exchange{
		{Request: "GET /v1/scheme"},
		{Request: "GET /v1/estimate"},
		{Request: "GET /v1/heavyhitters?threshold=0.1"},
		{Request: "POST /v1/report", Body: `{"report": 3}`},
		{Request: "POST /v1/report", Body: `{"report": 6}`},
		{Request: "POST /v1/reports", Body: `{"reports": [0, 1, 9]}`},
	}
	requests = append(requests, batchBodies(t, reports, 1000)...)
	requests = append(requests,
		exchange{Request: "GET /v1/estimate"},
		exchange{Request: "GET /v1/estimate?z=3.29"},
		exchange{Request: "GET /v1/estimate?margin=0.01"},
		exchange{Request: "GET /v1/estimate?margin=0.5"},
		exchange{Request: "GET /v1/estimate?categories=1,2"},
		exchange{Request: "GET /v1/estimate?margin=-1"},
		exchange{Request: "GET /v1/estimate?margin=bogus"},
		exchange{Request: "GET /v1/estimate?z=bogus"},
		exchange{Request: "GET /v1/estimate?z=-1"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.1"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.1&limit=2"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0"},
		exchange{Request: "GET /v1/heavyhitters"},
		exchange{Request: "GET /v1/heavyhitters?threshold=-1"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.1&limit=-2"},
	)
	checkGolden(t, "golden_dense.json", replay(t, base, requests))
}

// TestGoldenSketchResponses is TestGoldenDenseResponses for a small
// count-mean-sketch deployment: point estimates with distribution-free
// half-widths, heavy-hitter scans, the scheme document, and every error
// case of TestServerSketchQueryValidation.
func TestGoldenSketchResponses(t *testing.T) {
	scheme := mustCMS(t, 1000, 4, 16, 4, 1)
	_, _, base := startService(t, Config{Scheme: scheme})
	prior := make([]float64, 1000)
	for x := range prior {
		prior[x] = 0.25 / 1000
	}
	for x, p := range []float64{0.3, 0.2, 0.15, 0.1} {
		prior[x] += p
	}
	reports := goldenReports(t, scheme, prior, 6000, 23)

	requests := []exchange{
		{Request: "GET /v1/scheme"},
		{Request: "GET /v1/estimate?categories=1,2"},
		{Request: "GET /v1/heavyhitters?threshold=0.1"},
		{Request: "POST /v1/report", Body: `{"report": 5}`},
		{Request: "POST /v1/report", Body: `{"report": 64}`},
	}
	requests = append(requests, batchBodies(t, reports, 1500)...)
	requests = append(requests,
		exchange{Request: "GET /v1/estimate?categories=0,1,2,3,999"},
		exchange{Request: "GET /v1/estimate?categories=3,0&z=3.29"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.1"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.05&limit=2"},
		// The error cases of TestServerSketchQueryValidation.
		exchange{Request: "GET /v1/estimate"},
		exchange{Request: "GET /v1/estimate?categories=1&margin=0.01"},
		exchange{Request: "GET /v1/estimate?categories=nope"},
		exchange{Request: "GET /v1/estimate?categories=1000"},
		exchange{Request: "GET /v1/estimate?categories=,"},
		exchange{Request: "GET /v1/heavyhitters"},
		exchange{Request: "GET /v1/heavyhitters?threshold=-1"},
		exchange{Request: "GET /v1/heavyhitters?threshold=0.1&limit=-2"},
	)
	checkGolden(t, "golden_sketch.json", replay(t, base, requests))
}

// TestRestoreFixtureSnapshots boots a server on committed snapshot files —
// the dense {matrix, counts, total} form and the sketch {scheme, counts,
// total} form — and checks both restore to exactly the recorded counts, so
// snapshots persisted by earlier releases still recover.
func TestRestoreFixtureSnapshots(t *testing.T) {
	for _, tc := range []struct {
		file   string
		scheme rr.Scheme
	}{
		{"snapshot_dense_matrix.json", mustWarner(t, 6, 0.7)},
		{"snapshot_sketch.json", mustCMS(t, 1000, 4, 16, 4, 1)},
	} {
		t.Run(tc.file, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("..", "collector", "testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var want struct {
				Counts []int `json:"counts"`
				Total  int   `json:"total"`
			}
			if err := json.Unmarshal(fixture, &want); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "state.json")
			if err := os.WriteFile(path, fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Scheme: tc.scheme, SnapshotPath: path, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if !srv.Restored() || srv.Count() != want.Total {
				t.Fatalf("restored=%v count=%d, want true/%d", srv.Restored(), srv.Count(), want.Total)
			}
			// Persist again and read the counts back out of the new file.
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Counts []int `json:"counts"`
			}
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Counts) != len(want.Counts) {
				t.Fatalf("%d counts restored, fixture has %d", len(got.Counts), len(want.Counts))
			}
			for k := range want.Counts {
				if got.Counts[k] != want.Counts[k] {
					t.Fatalf("counts[%d] = %d, fixture has %d", k, got.Counts[k], want.Counts[k])
				}
			}
		})
	}
}
