package collector

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/randx"
)

// marginQuerier is the slice of the collector API the margin-projection
// tests exercise, satisfied by both collectors.
type marginQuerier interface {
	Ingest(int) error
	Count() int
	MarginOfError(float64) (float64, error)
	ReportsForMargin(margin, z float64) (int, error)
}

// TestReportsForMarginEdgeCases pins the projection's contract on the edges
// a long-lived server actually hits, for both collectors: a target the
// current collection already meets answers with the current total (never a
// downward extrapolation), an empty collector is ErrNoReports (not a
// division by zero), and non-positive or non-finite margins are ErrBadMargin
// instead of flowing NaN into an int conversion.
func TestReportsForMarginEdgeCases(t *testing.T) {
	m := mustWarner(t, 4, 0.8)
	flavors := []struct {
		name  string
		fresh func() marginQuerier
	}{
		{"plain", func() marginQuerier { return New(m) }},
		{"sharded", func() marginQuerier { return NewSharded(m, 4) }},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			// Empty collector: typed error, no panic, no division by zero.
			empty := fl.fresh()
			if _, err := empty.ReportsForMargin(0.01, 1.96); !errors.Is(err, ErrNoReports) {
				t.Fatalf("empty collector err = %v, want ErrNoReports", err)
			}

			c := fl.fresh()
			rng := randx.New(7)
			for i := 0; i < 5000; i++ {
				if err := c.Ingest(rng.Intn(4)); err != nil {
					t.Fatal(err)
				}
			}
			for _, bad := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
				if _, err := c.ReportsForMargin(bad, 1.96); !errors.Is(err, ErrBadMargin) {
					t.Fatalf("margin %v err = %v, want ErrBadMargin", bad, err)
				}
			}
			for _, badZ := range []float64{0, -1.96, math.NaN(), math.Inf(1)} {
				if _, err := c.ReportsForMargin(0.01, badZ); err == nil {
					t.Fatalf("z = %v accepted", badZ)
				}
			}

			cur, err := c.MarginOfError(1.96)
			if err != nil {
				t.Fatal(err)
			}
			if cur <= 0 {
				t.Fatalf("current margin = %v, want positive", cur)
			}
			// Already-met target (current margin, doubled margin, +large):
			// the answer is the current total, never less.
			for _, met := range []float64{cur, 2 * cur, 10} {
				got, err := c.ReportsForMargin(met, 1.96)
				if err != nil {
					t.Fatal(err)
				}
				if got != c.Count() {
					t.Fatalf("met margin %v: got %d reports, want current total %d", met, got, c.Count())
				}
			}
			// Unmet target: a strictly larger projection that scales like
			// 1/margin².
			tight, err := c.ReportsForMargin(cur/2, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			if tight <= c.Count() {
				t.Fatalf("tight margin projected %d reports, want > %d", tight, c.Count())
			}
			// Unreachably tight target: capped, not overflowed.
			capped, err := c.ReportsForMargin(1e-12, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			if capped != math.MaxInt32 {
				t.Fatalf("capped projection = %d, want MaxInt32", capped)
			}
		})
	}
}
