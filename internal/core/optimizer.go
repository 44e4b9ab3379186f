package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"optrr/internal/emoo"
	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Engine selects the evolutionary multi-objective algorithm driving the
// search. The paper chooses SPEA2 over other EMO algorithms citing a
// comparison study (Section V); EngineNSGA2 exists to validate that choice
// (the abl-nsga2 experiment).
type Engine int

const (
	// EngineSPEA2 is the paper's algorithm (default).
	EngineSPEA2 Engine = iota
	// EngineNSGA2 swaps in NSGA-II fitness and environmental selection.
	EngineNSGA2
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSPEA2:
		return "spea2"
	case EngineNSGA2:
		return "nsga2"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// BoundMode selects how matrices violating the δ bound are handled — the
// paper repairs them (Section V-G); rejection is the ablation baseline.
type BoundMode int

const (
	// BoundRepair pushes violating matrices back under the bound.
	BoundRepair BoundMode = iota
	// BoundReject discards violating matrices and substitutes fresh random
	// feasible ones.
	BoundReject
)

// String implements fmt.Stringer.
func (b BoundMode) String() string {
	switch b {
	case BoundRepair:
		return "repair"
	case BoundReject:
		return "reject"
	default:
		return fmt.Sprintf("BoundMode(%d)", int(b))
	}
}

// Config parameterizes the optimizer. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	// Prior is the original-data category distribution P(X) the privacy and
	// utility metrics are computed against. Required.
	Prior []float64
	// Records is the data-set size N entering the utility MSE. Required.
	Records int
	// Delta is the worst-case posterior bound δ of Equation (9). Required;
	// must exceed the prior mode (Theorem 5) to be satisfiable.
	Delta float64

	// PopulationSize is N_Q; zero means 40.
	PopulationSize int
	// ArchiveSize is N_V; zero means 40.
	ArchiveSize int
	// OmegaSize is N_Ω, the number of privacy bins of the optimal set;
	// zero disables Ω (plain SPEA2, the ablation baseline). The paper's
	// experiments use 1000.
	OmegaSize int
	// Generations is the iteration budget L. Zero means 500.
	Generations int
	// StagnationLimit stops the run after this many consecutive generations
	// without any Ω improvement (the paper's alternative termination
	// criterion). Zero disables stagnation-based termination.
	StagnationLimit int

	// MutationRate is the per-child probability of applying the mutation
	// operator after crossover. Zero means 0.6.
	MutationRate float64
	// MutationsPerChild is the number of mutation applications on a child
	// selected for mutation; zero means 2. Values above one speed up the
	// discovery of the coordinated cross-column structures at the
	// low-privacy end of the front.
	MutationsPerChild int
	// ImmigrantFraction is the share of each generation's population
	// replaced by fresh random genomes, maintaining exploration pressure
	// far from the current front. Zero means 0.1; negative disables.
	ImmigrantFraction float64
	// MutationStyle selects the paper's proportional mutation (default) or
	// the naive renormalizing baseline.
	MutationStyle MutationStyle
	// BoundMode selects repair (default, the paper) or reject.
	BoundMode BoundMode
	// SymmetricOnly restricts the search to symmetric matrices,
	// reproducing the Agrawal–Haritsa related-work restriction.
	SymmetricOnly bool
	// Engine selects the EMO algorithm (default: SPEA2, the paper's).
	Engine Engine
	// PrivacyFn, if non-nil, replaces the paper's Equation-8 privacy with a
	// custom objective (e.g. metrics.PrivacyWithGain under an ordinal gain
	// — the generalized adversary of Section IV-A). It must return values
	// in [0, 1] with larger meaning more private; the δ bound of Equation 9
	// is enforced regardless.
	PrivacyFn func(m *rr.Matrix, prior []float64) (float64, error)
	// Objectives lists extra objectives appended to the canonical
	// privacy/utility pair, turning the search k-dimensional (k = 2 +
	// len(Objectives), at most 2 + pareto.MaxExtraObjectives). Each is
	// evaluated against the worker's Workspace right after the fused
	// Evaluate, so built-ins reuse the already-computed P* and inverse.
	// Values are stored in Individual.Eval.Extra in canonical minimized
	// form (Maximize objectives negated) and participate in dominance,
	// SPEA2 density and the final front. Nil (the default) is the paper's
	// two-objective search, bit-for-bit unchanged.
	Objectives []metrics.Objective

	// Context, if non-nil, bounds the run: it is checked once per
	// generation, and a cancelled or deadline-exceeded context stops the
	// search at the next generation boundary. Run then returns the best
	// front found so far together with an error wrapping ctx.Err(), so
	// callers keep the partial result. Nil means no deadline (identical to
	// context.Background()) and costs nothing.
	Context context.Context

	// Seed drives all randomness; runs with equal configs are bit-for-bit
	// reproducible.
	Seed uint64
	// Workers bounds the parallelism of objective evaluation; zero means
	// GOMAXPROCS. Results are bit-for-bit identical at every worker count.
	Workers int

	// Islands splits the search into this many independent sub-populations
	// (each with its own RNG stream, scratch and local Ω archive) that
	// exchange their best members along a ring every MigrateEvery
	// generations and fold their fronts into one global Ω. 0 or 1 (the
	// default) is the single-population search, bit-for-bit identical to
	// previous releases regardless of Workers. Island runs are
	// seeded-reproducible for a fixed (Seed, Islands, MigrateEvery,
	// MigrationSize) but produce different (equivalent-quality) fronts than
	// the serial search. In island mode Progress fires once per migration
	// epoch rather than per generation.
	Islands int
	// MigrateEvery is the migration interval M in generations; zero means
	// 25. Only meaningful with Islands > 1.
	MigrateEvery int
	// MigrationSize is the number of front members each island exports to
	// its ring neighbor per migration; zero means 4. Only meaningful with
	// Islands > 1.
	MigrationSize int

	// SPEA2 tuning (see emoo.Config). KNearest zero means 1.
	KNearest  int
	Normalize bool

	// Progress, if non-nil, is invoked after every generation with running
	// statistics. It must not retain the Stats value's slices — they alias a
	// scratch buffer the optimizer overwrites next generation; callbacks
	// that keep Stats past their return must use Stats.Clone.
	Progress func(Stats)

	// Recorder, if non-nil and enabled, receives the structured run-trace
	// events "optimizer.start", "optimizer.generation" (one per generation,
	// with evaluation, repair, Ω and per-phase wall-time detail) and
	// "optimizer.done". A nil or no-op recorder costs nothing: no events
	// are built and no extra timing is taken.
	Recorder obs.Recorder
	// Metrics, if non-nil, receives live counters and gauges under the
	// "optimizer." name prefix (see newOptimizerMetrics), suitable for
	// expvar publication while a search runs.
	Metrics *obs.Registry
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments, for the given prior, record count and bound.
func DefaultConfig(prior []float64, records int, delta float64) Config {
	return Config{
		Prior:       prior,
		Records:     records,
		Delta:       delta,
		OmegaSize:   1000,
		Generations: 500,
		Normalize:   true,
	}
}

func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 40
	}
	if c.ArchiveSize == 0 {
		c.ArchiveSize = 40
	}
	if c.Generations == 0 {
		c.Generations = 500
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.6
	}
	if c.MutationsPerChild == 0 {
		c.MutationsPerChild = 2
	}
	if c.ImmigrantFraction == 0 {
		c.ImmigrantFraction = 0.1
	}
	if c.ImmigrantFraction < 0 {
		c.ImmigrantFraction = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.KNearest == 0 {
		c.KNearest = 1
	}
	if c.Islands > 1 {
		if c.MigrateEvery == 0 {
			c.MigrateEvery = 25
		}
		if c.MigrationSize == 0 {
			c.MigrationSize = 4
		}
	}
	return c
}

func (c Config) emooConfig() emoo.Config {
	return emoo.Config{KNearest: c.KNearest, Normalize: c.Normalize}
}

// Optimizer errors.
var (
	// ErrBadConfig reports an unusable configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrInfeasibleBound reports a δ below the prior mode, which no RR
	// matrix can satisfy (Theorem 5).
	ErrInfeasibleBound = errors.New("core: privacy bound is below the prior mode (Theorem 5)")
)

// ctxErr returns the context's error, tolerating the nil context the zero
// Config carries.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelError wraps a context error with run progress: callers can test
// errors.Is(err, context.Canceled) / context.DeadlineExceeded and still see
// how far the search got before it stopped.
func cancelError(gen int, err error) error {
	return fmt.Errorf("core: optimization stopped after %d generations: %w", gen, err)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Prior) < 2 {
		return fmt.Errorf("%w: prior must have at least 2 categories", ErrBadConfig)
	}
	var sum float64
	for i, v := range c.Prior {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: prior[%d] = %v", ErrBadConfig, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: prior sums to %v", ErrBadConfig, sum)
	}
	if c.Records <= 0 {
		return fmt.Errorf("%w: records = %d", ErrBadConfig, c.Records)
	}
	if c.Delta <= 0 || c.Delta > 1 {
		return fmt.Errorf("%w: delta = %v outside (0, 1]", ErrBadConfig, c.Delta)
	}
	if metrics.BoundFloor(c.Prior) > c.Delta+1e-12 {
		return fmt.Errorf("%w: delta = %v, prior mode = %v", ErrInfeasibleBound, c.Delta, metrics.BoundFloor(c.Prior))
	}
	if c.PopulationSize < 0 || c.ArchiveSize < 0 || c.Generations < 0 || c.OmegaSize < 0 {
		return fmt.Errorf("%w: negative size", ErrBadConfig)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("%w: mutation rate %v outside [0, 1]", ErrBadConfig, c.MutationRate)
	}
	if c.Islands < 0 || c.MigrateEvery < 0 || c.MigrationSize < 0 {
		return fmt.Errorf("%w: negative island parameter", ErrBadConfig)
	}
	return validateObjectives(c.Objectives)
}

// validateObjectives checks an extra-objective list: bounded by the Point
// capacity, no nils, and unique non-reserved names.
func validateObjectives(objs []metrics.Objective) error {
	if len(objs) > pareto.MaxExtraObjectives {
		return fmt.Errorf("%w: %d extra objectives, at most %d supported", ErrBadConfig, len(objs), pareto.MaxExtraObjectives)
	}
	seen := make(map[string]bool, len(objs))
	for i, obj := range objs {
		if obj == nil {
			return fmt.Errorf("%w: objective %d is nil", ErrBadConfig, i)
		}
		name := obj.Name()
		if name == "" {
			return fmt.Errorf("%w: objective %d has an empty name", ErrBadConfig, i)
		}
		if name == "privacy" || name == "utility" {
			return fmt.Errorf("%w: objective name %q is reserved for the canonical axes", ErrBadConfig, name)
		}
		if seen[name] {
			return fmt.Errorf("%w: duplicate objective %q", ErrBadConfig, name)
		}
		seen[name] = true
	}
	return nil
}

// evalExtras evaluates the extra objectives against the workspace state left
// by the fused Evaluate on m, returning their values in canonical minimized
// form. Nil objs (the two-objective fast path) returns nil without touching
// the workspace.
func evalExtras(ws *metrics.Workspace, m *rr.Matrix, prior []float64, records int, objs []metrics.Objective) ([]float64, error) {
	if len(objs) == 0 {
		return nil, nil
	}
	extra := make([]float64, len(objs))
	for t, obj := range objs {
		v, err := obj.Evaluate(ws, m, prior, records)
		if err != nil {
			return nil, err
		}
		extra[t] = metrics.CanonicalValue(obj, v)
	}
	return extra, nil
}

// Stats summarizes a generation for progress reporting.
type Stats struct {
	// Generation is the zero-based index of the completed generation.
	Generation int
	// Evaluations is the cumulative number of objective evaluations.
	Evaluations int
	// ArchiveSize is the current archive population.
	ArchiveSize int
	// OmegaOccupied is the number of occupied Ω bins.
	OmegaOccupied int
	// OmegaImproved is the number of Ω bins improved this generation.
	OmegaImproved int
	// FrontHypervolume is the hypervolume of the current archive front with
	// reference point (0, refUtility), where refUtility is the utility of
	// the totally uninformative estimate; it grows as the front advances.
	// For runs with extra objectives this remains the privacy/utility
	// projection (see pareto.Hypervolume) so the trend stays comparable
	// across configurations.
	FrontHypervolume float64
	// FrontSize is the number of non-dominated points in the archive.
	FrontSize int
	// Repairs is the number of children needing bound repair (Section V-G)
	// this generation.
	Repairs int
	// RepairPushBack is the total probability mass repair moved off
	// violating entries this generation.
	RepairPushBack float64
	// Redraws is the number of infeasible children replaced by fresh random
	// genomes this generation.
	Redraws int
	// Rejects is the number of children discarded by BoundReject this
	// generation.
	Rejects int
	// Front is the archive in objective space. The slice aliases a scratch
	// buffer the optimizer overwrites every generation: callbacks keeping
	// Stats past their return must use Clone.
	Front []pareto.Point
	// Convergence is the generation's search-quality snapshot: best
	// hypervolume so far, generations since it improved, stall flag, Ω
	// churn and front spread. See the Convergence type.
	Convergence Convergence
}

// Clone returns a deep copy of the stats that is safe to retain after the
// Progress callback returns: the Front slice is copied out of the
// optimizer's reused scratch buffer.
func (s Stats) Clone() Stats {
	if s.Front != nil {
		s.Front = append([]pareto.Point(nil), s.Front...)
	}
	return s
}

// Result is the outcome of a Run.
type Result struct {
	// Front is the Pareto-optimal set the paper outputs: the non-dominated
	// members of Ω (or of the final archive when Ω is disabled), sorted by
	// ascending privacy.
	Front []Individual
	// Archive is the final SPEA2 archive.
	Archive []Individual
	// Generations is the number of generations actually run.
	Generations int
	// Evaluations is the total number of objective evaluations.
	Evaluations int
	// Stagnated reports whether the run stopped on the stagnation criterion
	// rather than the generation budget.
	Stagnated bool
}

// FrontPoints returns the result front in objective space, ascending in
// privacy.
func (res Result) FrontPoints() []pareto.Point {
	pts := make([]pareto.Point, len(res.Front))
	for i, ind := range res.Front {
		pts[i] = ind.Point()
	}
	pareto.SortByPrivacy(pts)
	return pts
}

// Matrices converts the result front into validated RR matrices.
func (res Result) Matrices() ([]*rr.Matrix, error) {
	out := make([]*rr.Matrix, len(res.Front))
	for i, ind := range res.Front {
		m, err := ind.Genome.Matrix()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Optimizer runs the paper's SPEA2-based search. Construct with New. It is
// the Genome instance of the shared generation loop (search): the embedded
// loop drives selection, variation and Ω, and the Optimizer supplies the
// genotype operations over one RR matrix genome.
type Optimizer struct {
	*search[Genome]

	// workers holds one evaluation workspace per configured worker.
	workers []*workerScratch
	// seedGenomes, when non-nil, is injected at the head of the initial
	// population before the random fill — the island scheduler's
	// closed-form anchors. Never set on the plain serial path.
	seedGenomes []Genome
}

// New validates the configuration and returns a ready optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	o := &Optimizer{workers: make([]*workerScratch, cfg.Workers)}
	for i := range o.workers {
		o.workers[i] = newWorkerScratch()
	}
	o.search = newSearch[Genome](cfg, o)
	return o, nil
}

// Run executes the optimization loop of Section V-A:
//
//  1. fitness assignment over population ∪ archive,
//  2. environmental selection into the next archive,
//  3. binary-tournament mating selection,
//  4. crossover and mutation into the next population,
//  5. bound repair (or rejection),
//  6. three-set update with Ω,
//  7. termination on the generation budget or Ω stagnation.
//
// With Config.Islands > 1 the same loop runs as independent island
// searches with periodic migration; see runIslands.
func (o *Optimizer) Run() (Result, error) {
	if o.cfg.Islands > 1 {
		return o.runIslands()
	}
	rs, front, err := o.run()
	if rs == nil {
		return Result{}, err
	}
	res := Result{
		Front:       front,
		Archive:     rs.archive,
		Generations: rs.gen,
		Evaluations: o.evaluations,
		Stagnated:   rs.stagnated,
	}
	o.emitDone(res, rs.wallStart)
	return res, err
}

// initial builds the genomes of the initial population Q_0: any injected
// seed genomes first (island mode's closed-form anchors; nil for the plain
// search, which stays purely random), random genomes for the rest.
func (o *Optimizer) initial(r *randx.Source) []Genome {
	genomes := make([]Genome, 0, o.cfg.PopulationSize)
	for _, g := range o.seedGenomes {
		if len(genomes) >= o.cfg.PopulationSize {
			break
		}
		genomes = append(genomes, g)
	}
	for len(genomes) < o.cfg.PopulationSize {
		genomes = append(genomes, o.random(r))
	}
	return genomes
}

// random draws a fresh random genome.
func (o *Optimizer) random(r *randx.Source) Genome {
	return NewRandomGenome(len(o.cfg.Prior), r)
}

// crossover is the paper's column-swap crossover.
func (o *Optimizer) crossover(a, b Genome, r *randx.Source) (Genome, Genome, error) {
	return Crossover(a, b, r)
}

// mutate applies the configured mutation style once.
func (o *Optimizer) mutate(g Genome, r *randx.Source) {
	Mutate(g, o.cfg.MutationStyle, 1, r)
}

// evaluate symmetrizes (SymmetricOnly), repairs or rejects (BoundMode) and
// evaluates g through worker w's persistent workerScratch. A singular matrix,
// an unrepairable bound or a failing custom objective voids the genome.
func (o *Optimizer) evaluate(w int, g Genome) (metrics.Evaluation, genomeOutcome) {
	cfg := o.cfg
	sc := o.workers[w]
	var c genomeOutcome
	if cfg.SymmetricOnly {
		g.Symmetrize()
	}
	var m *rr.Matrix
	switch cfg.BoundMode {
	case BoundReject:
		var err error
		m, err = sc.matrixFor(g)
		if err != nil {
			return metrics.Evaluation{}, c
		}
		holds, err := sc.ws.MeetsBound(m, cfg.Prior, cfg.Delta)
		if err != nil || !holds {
			c.rejected = true
			return metrics.Evaluation{}, c
		}
	default:
		feasible, rst := meetBoundStats(g, cfg.Prior, cfg.Delta, cfg.SymmetricOnly, sc.slackFor(g.N()))
		c.repaired = rst.Rounds > 0 || rst.Blended
		c.pushBack = rst.PushBack
		if !feasible {
			return metrics.Evaluation{}, c
		}
		var err error
		m, err = sc.matrixFor(g)
		if err != nil {
			return metrics.Evaluation{}, c
		}
	}
	ev, err := sc.ws.Evaluate(m, cfg.Prior, cfg.Records)
	if err != nil {
		return metrics.Evaluation{}, c // singular: inversion utility undefined
	}
	// Extra objectives run while the workspace still holds this matrix's P*
	// and inverse; a failing objective voids the individual like a singular
	// matrix does.
	ev.Extra, err = evalExtras(sc.ws, m, cfg.Prior, cfg.Records, cfg.Objectives)
	if err != nil {
		return metrics.Evaluation{}, c
	}
	if cfg.PrivacyFn != nil {
		priv, err := cfg.PrivacyFn(m, cfg.Prior)
		if err != nil {
			return metrics.Evaluation{}, c
		}
		ev.Privacy = priv
	}
	c.ok = true
	return ev, c
}

// referenceUtility is the hypervolume reference: the closed-form utility of
// the noisiest feasible Warner matrix, an upper anchor for MSE scale. Falls
// back to 1 if none is available.
func (o *Optimizer) referenceUtility() float64 {
	n := len(o.cfg.Prior)
	for _, p := range []float64{0.3, 0.4, 0.5, 0.6} {
		m, err := rr.Warner(n, p)
		if err != nil {
			continue
		}
		if u, err := metrics.Utility(m, o.cfg.Prior, o.cfg.Records); err == nil {
			return u * 2
		}
	}
	return 1
}
