package core

import (
	"math"
	"sync"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// TestConvergenceSnapshotInvariants runs an observed search and checks the
// per-generation snapshot obeys its contracts: best hypervolume is monotone,
// the stall clock resets exactly on improvement, and Ω churn reconciles with
// the occupied-bin count.
func TestConvergenceSnapshotInvariants(t *testing.T) {
	var snaps []Convergence
	var lastOmega int
	cfg := obsTestConfig()
	cfg.Generations = 12
	cfg.Progress = func(s Stats) {
		snaps = append(snaps, s.Convergence)
		lastOmega = s.OmegaOccupied
	}
	runWith(t, cfg)

	if len(snaps) != cfg.Generations {
		t.Fatalf("got %d snapshots, want %d", len(snaps), cfg.Generations)
	}
	best := math.Inf(-1)
	inserts, evictions := 0, 0
	for g, c := range snaps {
		if c.Generation != g {
			t.Fatalf("snapshot %d has generation %d", g, c.Generation)
		}
		if c.BestHypervolume < best {
			t.Fatalf("gen %d best hypervolume decreased: %v < %v", g, c.BestHypervolume, best)
		}
		best = c.BestHypervolume
		if c.Hypervolume > c.BestHypervolume {
			t.Fatalf("gen %d hypervolume %v above best %v", g, c.Hypervolume, c.BestHypervolume)
		}
		if c.Improved && c.SinceImprovement != 0 {
			t.Fatalf("gen %d improved but SinceImprovement = %d", g, c.SinceImprovement)
		}
		if !c.Improved && g > 0 && c.SinceImprovement != snaps[g-1].SinceImprovement+1 {
			t.Fatalf("gen %d stall clock did not advance: %d after %d",
				g, c.SinceImprovement, snaps[g-1].SinceImprovement)
		}
		if c.OmegaInserts < 0 || c.OmegaEvictions < 0 || c.OmegaEvictions > c.OmegaInserts+evictions-inserts+lastOmega {
			t.Fatalf("gen %d churn out of range: inserts=%d evictions=%d", g, c.OmegaInserts, c.OmegaEvictions)
		}
		inserts += c.OmegaInserts
		evictions += c.OmegaEvictions
		if c.Spread < 0 || math.IsNaN(c.Spread) {
			t.Fatalf("gen %d spread = %v", g, c.Spread)
		}
	}
	if inserts == 0 {
		t.Fatal("no Ω inserts across the whole run")
	}
	if inserts-evictions != lastOmega {
		t.Fatalf("churn does not reconcile: %d inserts - %d evictions != %d occupied bins",
			inserts, evictions, lastOmega)
	}
	// The first generation always improves on the empty history.
	if !snaps[0].Improved {
		t.Fatal("generation 0 not marked improved")
	}
}

// TestConvergenceTrackerStall drives the tracker directly: a flat
// hypervolume must raise the stall flag exactly at the window, and an
// improvement must clear it.
func TestConvergenceTrackerStall(t *testing.T) {
	omega := NewOmega[Genome](10)
	tr := newConvergenceTracker(3)
	front := []pareto.Point{{Privacy: 0.2, Utility: 0.5}, {Privacy: 0.5, Utility: 0.2}}

	c := tr.observe(0, 1.0, omega, front)
	if !c.Improved || c.Stalled {
		t.Fatalf("gen 0: %+v", c)
	}
	for gen := 1; gen <= 3; gen++ {
		c = tr.observe(gen, 1.0, omega, front)
		if c.Improved {
			t.Fatalf("gen %d improved on flat hypervolume", gen)
		}
		if wantStall := gen >= 3; c.Stalled != wantStall {
			t.Fatalf("gen %d stalled = %v, want %v", gen, c.Stalled, wantStall)
		}
	}
	// Float-noise gains must not reset the stall clock...
	c = tr.observe(4, 1.0+1e-12, omega, front)
	if c.Improved || !c.Stalled {
		t.Fatalf("noise gain counted as improvement: %+v", c)
	}
	// ...but a real gain must.
	c = tr.observe(5, 1.1, omega, front)
	if !c.Improved || c.Stalled || c.SinceImprovement != 0 {
		t.Fatalf("real gain not registered: %+v", c)
	}
	if c.BestHypervolume != 1.1 {
		t.Fatalf("best hypervolume = %v, want 1.1", c.BestHypervolume)
	}
}

// TestConvergenceTrackerChurnDiffs: the tracker reports per-generation
// deltas of the cumulative Ω counters.
func TestConvergenceTrackerChurnDiffs(t *testing.T) {
	omega := NewOmega[Genome](100)
	tr := newConvergenceTracker(0)
	rng := randx.New(1)
	ind := func(priv, util float64) Individual {
		g := NewRandomGenome(3, rng)
		return Individual{Genome: g, Eval: metrics.Evaluation{Privacy: priv, Utility: util}}
	}
	omega.Update(ind(0.105, 0.5)) // insert
	omega.Update(ind(0.205, 0.5)) // insert
	c := tr.observe(0, 1, omega, nil)
	if c.OmegaInserts != 2 || c.OmegaEvictions != 0 {
		t.Fatalf("gen 0 churn = %+v", c)
	}
	omega.Update(ind(0.105, 0.4)) // evicts the first bin's entry
	omega.Update(ind(0.305, 0.5)) // insert
	omega.Update(ind(0.305, 0.9)) // worse: no churn
	c = tr.observe(1, 1, omega, nil)
	if c.OmegaInserts != 2 || c.OmegaEvictions != 1 {
		t.Fatalf("gen 1 churn = %+v", c)
	}
	c = tr.observe(2, 1, omega, nil)
	if c.OmegaInserts != 0 || c.OmegaEvictions != 0 {
		t.Fatalf("gen 2 churn = %+v", c)
	}
}

// TestConvergenceRegistryGauges: the registry mirrors of the snapshot are
// present and consistent after an observed run.
func TestConvergenceRegistryGauges(t *testing.T) {
	reg := obs.NewRegistry()
	var last Convergence
	cfg := obsTestConfig()
	cfg.Metrics = reg
	cfg.Progress = func(s Stats) { last = s.Convergence }
	runWith(t, cfg)

	if got := reg.Gauge("optimizer.convergence.best_hypervolume").Value(); got != last.BestHypervolume {
		t.Fatalf("best_hypervolume gauge = %v, want %v", got, last.BestHypervolume)
	}
	if got := reg.Gauge("optimizer.convergence.stale_generations").Value(); got != float64(last.SinceImprovement) {
		t.Fatalf("stale_generations gauge = %v, want %d", got, last.SinceImprovement)
	}
	if got := reg.Gauge("optimizer.convergence.stalled").Value(); got != 0 && got != 1 {
		t.Fatalf("stalled gauge = %v, want 0 or 1", got)
	}
	ins := reg.Counter("optimizer.omega_inserts").Value()
	evs := reg.Counter("optimizer.omega_evictions").Value()
	occupied := reg.Gauge("optimizer.omega_occupied").Value()
	if ins <= 0 || float64(ins-evs) != occupied {
		t.Fatalf("omega churn counters inconsistent: inserts=%d evictions=%d occupied=%v", ins, evs, occupied)
	}
}

// TestConvergenceConcurrentScrape runs an observed search while other
// goroutines hammer the registry's render paths — the live-scrape scenario
// the debug server's /metrics endpoint creates. Run under -race by ci.sh.
func TestConvergenceConcurrentScrape(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := obsTestConfig()
	cfg.Generations = 8
	cfg.Metrics = reg
	cfg.Recorder = obs.NewMemory()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = reg.String()
				_ = reg.Snapshot()
			}
		}()
	}
	runWith(t, cfg)
	close(done)
	wg.Wait()

	if got := reg.Gauge("optimizer.generation").Value(); got != float64(cfg.Generations-1) {
		t.Fatalf("final generation gauge = %v", got)
	}
}

// TestConvergenceDoesNotPerturbSearch: the convergence layer is telemetry
// only — an observed run must produce the same front as a bare one (already
// covered for the recorder; this pins the tracker-on-Progress path too).
func TestConvergenceDoesNotPerturbSearch(t *testing.T) {
	bare := runWith(t, obsTestConfig())
	cfg := obsTestConfig()
	cfg.Progress = func(Stats) {}
	observed := runWith(t, cfg)
	a, b := bare.FrontPoints(), observed.FrontPoints()
	if len(a) != len(b) {
		t.Fatalf("front sizes diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("front point %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// BenchmarkConvergenceSnapshot times one per-generation snapshot — tracker
// fold, spread computation over a realistic 40-point archive front, and the
// registry mirror — the exact extra work a traced generation now pays.
// Pinned into the ci.sh bench smoke.
func BenchmarkConvergenceSnapshot(b *testing.B) {
	front := make([]pareto.Point, 40)
	for i := range front {
		f := float64(i) / 40
		front[i] = pareto.Point{Privacy: 0.1 + 0.6*f, Utility: 1e-4 * (1.2 - f)}
	}
	omega := NewOmega[Genome](1000)
	tr := newConvergenceTracker(0)
	opt := &search[Genome]{rec: obs.Nop, met: newOptimizerMetrics(obs.NewRegistry())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tr.observe(i, 0.5+float64(i%16)*1e-3, omega, front)
		opt.emitConvergence(c)
	}
}
