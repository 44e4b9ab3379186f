package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func testConfig() Config {
	cfg := DefaultConfig([]float64{0.4, 0.3, 0.2, 0.1}, 1000, 0.8)
	cfg.Generations = 50
	cfg.PopulationSize = 12
	cfg.ArchiveSize = 12
	cfg.OmegaSize = 100
	cfg.Seed = 1
	cfg.Workers = 1
	return cfg
}

// TestRunAlreadyCancelledContext: a context cancelled before Run starts must
// return promptly with an error wrapping context.Canceled and without
// touching the search (zero evaluations).
func TestRunAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig()
	cfg.Context = ctx
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if res.Evaluations != 0 {
		t.Fatalf("evaluations = %d before prompt return", res.Evaluations)
	}
}

// TestRunMidwayCancellation cancels from the Progress callback after a few
// generations: Run must stop at the next generation boundary and return the
// best-so-far front alongside the cancellation error.
func TestRunMidwayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 5
	cfg := testConfig()
	cfg.Context = ctx
	cfg.Progress = func(st Stats) {
		if st.Generation == stopAfter-1 {
			cancel()
		}
	}
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if res.Generations != stopAfter {
		t.Fatalf("generations = %d, want %d (stop at next boundary)", res.Generations, stopAfter)
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled run returned no best-so-far front")
	}
	for _, ind := range res.Front {
		if _, err := ind.Genome.Matrix(); err != nil {
			t.Fatalf("partial front holds invalid genome: %v", err)
		}
	}
}

// TestRunDeadline: a deadline in the past behaves like cancellation with
// context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cfg := testConfig()
	cfg.Context = ctx
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapping context.DeadlineExceeded", err)
	}
}

// TestRunNilContextUnchanged pins that the zero Config (nil Context) still
// runs to completion exactly as before — same front as an explicit
// background context.
func TestRunNilContextUnchanged(t *testing.T) {
	run := func(ctx context.Context) Result {
		cfg := testConfig()
		cfg.Context = ctx
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(nil)
	b := run(context.Background())
	if len(a.Front) != len(b.Front) || a.Evaluations != b.Evaluations {
		t.Fatalf("nil context diverged: %d/%d fronts, %d/%d evaluations",
			len(a.Front), len(b.Front), a.Evaluations, b.Evaluations)
	}
	for i := range a.Front {
		if !evalsEqual(a.Front[i].Eval, b.Front[i].Eval) {
			t.Fatalf("front[%d] differs: %+v vs %+v", i, a.Front[i].Eval, b.Front[i].Eval)
		}
	}
}

// TestWeightedSumCancellation covers the scalarized baseline: an
// already-cancelled context returns promptly, and a mid-run cancellation
// returns the front of everything evaluated so far with the wrapping error.
func TestWeightedSumCancellation(t *testing.T) {
	cfg := WeightedSumConfig{
		Prior:   []float64{0.4, 0.3, 0.2, 0.1},
		Records: 1000,
		Delta:   0.8,
		Weights: 3,
		// A budget far beyond what can finish before the cancel below.
		Generations:    1 << 30,
		PopulationSize: 10,
		Seed:           1,
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	cfg.Context = pre
	if _, err := OptimizeWeightedSum(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg.Context = ctx
	res, err := OptimizeWeightedSum(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled weighted-sum run returned no partial front")
	}
}

// TestOptimizeMultiCancellation covers the multi-dimensional search the same
// way.
func TestOptimizeMultiCancellation(t *testing.T) {
	joint := []float64{0.3, 0.2, 0.15, 0.35}
	cfg := MultiConfig{
		Joint:          joint,
		Sizes:          []int{2, 2},
		Records:        1000,
		Delta:          0.9,
		Generations:    1 << 30,
		PopulationSize: 10,
		ArchiveSize:    10,
		OmegaSize:      100,
		Seed:           1,
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	cfg.Context = pre
	if _, err := OptimizeMulti(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg.Context = ctx
	res, err := OptimizeMulti(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled multi run returned no partial front")
	}
}

// countingContext is an uncancellable context that counts Err polls.
type countingContext struct {
	context.Context
	polls int
}

func (c *countingContext) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestContextPolledOncePerGeneration pins the poll contract that callers
// timing generations through the context rely on: one Err before any work,
// then exactly one per generation — Generations+1 polls for an uncancelled
// run, for both the 1-D and the multi-attribute search.
func TestContextPolledOncePerGeneration(t *testing.T) {
	ctx := &countingContext{Context: context.Background()}
	cfg := testConfig()
	cfg.Context = ctx
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(); err != nil {
		t.Fatal(err)
	}
	if want := cfg.Generations + 1; ctx.polls != want {
		t.Errorf("Run polled the context %d times, want %d", ctx.polls, want)
	}

	ctx = &countingContext{Context: context.Background()}
	mcfg := quickMulti()
	mcfg.Context = ctx
	if _, err := OptimizeMulti(mcfg); err != nil {
		t.Fatal(err)
	}
	if want := mcfg.Generations + 1; ctx.polls != want {
		t.Errorf("OptimizeMulti polled the context %d times, want %d", ctx.polls, want)
	}
}
