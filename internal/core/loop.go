package core

import (
	"fmt"
	"sync"
	"time"

	"optrr/internal/emoo"
	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// This file is the generation loop of Section V-A, shared by every search:
// SPEA2 fitness and environmental selection, binary-tournament mating,
// crossover and mutation, bound repair and evaluation, and the three-set Ω
// update. The loop is generic over the genotype G; a genotype[G] supplies
// the few operations that differ between the 1-D search (Optimizer, over one
// Genome) and the multi-attribute search of Section VII (OptimizeMulti, over
// a tuple of per-attribute genomes).

// genotype is what the generation loop needs to know about a genome type.
// Every method that takes r draws from the run's sequential RNG; evaluate
// runs concurrently, one call per worker at a time.
type genotype[G cloner[G]] interface {
	// initial returns the genomes of the initial population Q_0.
	initial(r *randx.Source) []G
	// random draws a fresh genome, for redraws and immigrants.
	random(r *randx.Source) G
	// crossover recombines two parents into two new children.
	crossover(a, b G, r *randx.Source) (G, G, error)
	// mutate applies the mutation operator once, in place.
	mutate(g G, r *randx.Source)
	// evaluate repairs g in place and evaluates it on worker w's exclusive
	// scratch. The outcome's ok flag reports whether g is usable.
	evaluate(w int, g G) (metrics.Evaluation, genomeOutcome)
	// referenceUtility is the hypervolume reference of the per-generation
	// statistics.
	referenceUtility() float64
}

// search is one run of the generation loop over genotype G.
type search[G cloner[G]] struct {
	cfg   Config
	geno  genotype[G]
	rng   *randx.Source
	omega *Omega[G]

	evaluations int

	// Observability plumbing. rec is never nil (OrNop); met is nil without
	// a registry. observed gates all per-generation Stats assembly, timed
	// gates wall-clock sampling, so the bare configuration pays for none of
	// it.
	rec      obs.Recorder
	met      *optimizerMetrics
	observed bool
	timed    bool
	// conv folds per-generation fronts into Convergence snapshots; only
	// consulted when observed.
	conv convergenceTracker
	// frontBuf is the objective-space scratch buffer reused every
	// generation for mating selection and Stats.Front — the reuse is why
	// Progress callbacks must not retain Stats slices without Clone.
	frontBuf []pareto.Point
	// tally accumulates per-generation repair/redraw/reject counts inside
	// realize; stepGeneration resets it at the top of every generation.
	tally generationTally
	// fitnessDur/truncateDur accumulate, when timed, the wall time of the
	// generation's SPEA2 fitness assignments and environmental selection
	// (truncation) — the sub-phases of "select" whose kernels parallelize
	// across Workers. stepGeneration resets them with the tally.
	fitnessDur  time.Duration
	truncateDur time.Duration

	// Hot-path scratch, persistent across generations. emooScratch backs
	// SPEA2 fitness/selection; unionBuf/unionPts/outcomes are the
	// per-generation population ∪ archive buffers.
	emooScratch *emoo.Scratch
	unionBuf    []member[G]
	unionPts    []pareto.Point
	outcomes    []genomeOutcome
}

// newSearch prepares a run of cfg, which must be validated and defaulted,
// over the genotype geno.
func newSearch[G cloner[G]](cfg Config, geno genotype[G]) *search[G] {
	rec := obs.OrNop(cfg.Recorder)
	met := newOptimizerMetrics(cfg.Metrics)
	return &search[G]{
		cfg:         cfg,
		geno:        geno,
		rng:         randx.New(cfg.Seed),
		omega:       NewOmega[G](cfg.OmegaSize),
		rec:         rec,
		met:         met,
		observed:    cfg.Progress != nil || rec.Enabled() || met != nil,
		timed:       rec.Enabled() || met != nil,
		conv:        newConvergenceTracker(cfg.StagnationLimit),
		emooScratch: emoo.NewScratch(),
	}
}

// generationTally counts the feasibility work done by one generation's
// realize pass.
type generationTally struct {
	repairs  int
	pushBack float64
	redraws  int
	rejects  int
}

// genomeOutcome is one genome's trip through evaluate, for tallying.
type genomeOutcome struct {
	ok       bool
	repaired bool
	pushBack float64
	rejected bool
}

// add folds one outcome into the generation's tally.
func (t *generationTally) add(c genomeOutcome) {
	if c.repaired {
		t.repairs++
	}
	t.pushBack += c.pushBack
	if c.rejected {
		t.rejects++
	}
}

// run drives the loop straight through the generation budget: one context
// poll before any work, then one per generation. It returns the final loop
// state and the output front; a cancelled run returns both (the best-so-far
// front) together with the cancellation error, a failed or pre-cancelled run
// a nil state.
func (s *search[G]) run() (*runState[G], []member[G], error) {
	if err := ctxErr(s.cfg.Context); err != nil {
		// Already cancelled: return promptly, before paying for the seed
		// population. The front is empty — no work was done.
		return nil, nil, cancelError(0, err)
	}
	s.emitStart()
	st, err := s.begin()
	if err != nil {
		return nil, nil, err
	}
	for st.gen < s.cfg.Generations {
		done, err := s.stepGeneration(st)
		if err != nil {
			return nil, nil, err
		}
		if done {
			break
		}
	}
	return st, s.outputFront(st.archive), st.cancelErr
}

// runState is one search's loop state between generations. run drives it
// straight through the generation budget; the island scheduler advances W of
// them a migration interval at a time.
type runState[G cloner[G]] struct {
	population []member[G]
	archive    []member[G]
	gen        int  // completed generations
	stagnant   int  // consecutive generations without Ω improvement
	stagnated  bool // stopped on the stagnation criterion
	cancelErr  error
	refUtility float64
	wallStart  time.Time
}

// begin seeds the initial population and prepares the loop state. It does
// not emit the start event — island mode emits one start per island through
// the tagged recorder, so emission stays with the caller.
func (s *search[G]) begin() (*runState[G], error) {
	st := &runState[G]{}
	if s.timed {
		st.wallStart = time.Now()
	}
	population, err := s.realize(s.geno.initial(s.rng))
	if err != nil {
		return nil, err
	}
	st.population = population
	st.refUtility = s.geno.referenceUtility()
	return st, nil
}

// stepGeneration advances the search by one generation. It returns done
// when the run should stop early — cancellation (recorded in rs.cancelErr)
// or Ω stagnation — and a non-nil error only for fatal failures.
func (s *search[G]) stepGeneration(rs *runState[G]) (bool, error) {
	cfg := s.cfg
	gen := rs.gen
	// One cancellation check per generation: cheap against the cost of a
	// generation, and the loop state is always consistent at the boundary,
	// so the best-so-far front stays well-formed.
	if err := ctxErr(cfg.Context); err != nil {
		rs.cancelErr = cancelError(gen, err)
		return true, nil
	}
	s.tally = generationTally{}
	s.fitnessDur, s.truncateDur = 0, 0
	evalsBefore := s.evaluations
	var phases [phaseCount]time.Duration
	var mark time.Time
	if s.timed {
		mark = time.Now()
	}
	lap := func(p int) {
		if s.timed {
			now := time.Now()
			phases[p] = now.Sub(mark)
			mark = now
		}
	}

	// population ∪ archive, in reused scratch buffers: the union is copied
	// into nextArchive below, so nothing retains these slices past the
	// generation.
	union := append(append(s.unionBuf[:0], rs.population...), rs.archive...)
	s.unionBuf = union[:0]
	if cap(s.unionPts) < len(union) {
		s.unionPts = make([]pareto.Point, len(union))
	}
	pts := s.unionPts[:len(union)]
	for i, ind := range union {
		pts[i] = ind.Point()
	}
	selIdx, err := s.selectEnvironment(pts)
	if err != nil {
		return false, err
	}
	nextArchive := make([]member[G], len(selIdx))
	for k, i := range selIdx {
		nextArchive[k] = union[i]
	}
	// Environmental-selection truncation pressure: how many of the union's
	// non-dominated points did not fit into the archive.
	truncated := 0
	if s.observed {
		if fs := len(pareto.Front(pts)); fs > len(nextArchive) {
			truncated = fs - len(nextArchive)
		}
	}
	lap(phaseSelect)

	// Mating selection over the new archive. frontBuf is the scratch buffer
	// shared with Stats.Front; it is rebuilt from the archive individuals
	// every generation, so consumers mutating or retaining it cannot
	// corrupt the search state.
	s.frontBuf = s.frontBuf[:0]
	for _, ind := range nextArchive {
		s.frontBuf = append(s.frontBuf, ind.Point())
	}
	archivePts := s.frontBuf
	archiveFit := s.assignFitness(archivePts)

	// Crossover + mutation produce the next population; a small immigrant
	// quota keeps exploration pressure away from the current front.
	immigrants := int(cfg.ImmigrantFraction * float64(cfg.PopulationSize))
	parent := func() G { return nextArchive[emoo.BinaryTournament(archiveFit, s.rng)].Genome }
	genomes := make([]G, 0, cfg.PopulationSize)
	for len(genomes) < cfg.PopulationSize-immigrants {
		// Go evaluates the two parent() calls left to right, so the
		// tournament draws stay in a fixed order.
		c1, c2, err := s.geno.crossover(parent(), parent(), s.rng)
		if err != nil {
			return false, err
		}
		for _, child := range [2]G{c1, c2} {
			if len(genomes) >= cfg.PopulationSize-immigrants {
				break
			}
			if s.rng.Float64() < cfg.MutationRate {
				for k := 0; k < cfg.MutationsPerChild; k++ {
					s.geno.mutate(child, s.rng)
				}
			}
			genomes = append(genomes, child)
		}
	}
	for len(genomes) < cfg.PopulationSize {
		genomes = append(genomes, s.geno.random(s.rng))
	}
	lap(phaseVary)

	nextPopulation, err := s.realize(genomes)
	if err != nil {
		return false, err
	}
	lap(phaseEval)

	// Three-set update (Section V-H).
	improved := s.omega.UpdateAll(nextPopulation)
	improved += s.omega.UpdateAll(nextArchive)
	backfilled := s.omega.ImproveArchive(nextArchive)
	lap(phaseOmega)

	rs.population = nextPopulation
	rs.archive = nextArchive

	if s.observed {
		st := Stats{
			Generation:       gen,
			Evaluations:      s.evaluations,
			ArchiveSize:      len(nextArchive),
			OmegaOccupied:    s.omega.Len(),
			OmegaImproved:    improved,
			FrontHypervolume: pareto.Hypervolume(archivePts, 0, rs.refUtility),
			FrontSize:        len(pareto.Front(archivePts)),
			Repairs:          s.tally.repairs,
			RepairPushBack:   s.tally.pushBack,
			Redraws:          s.tally.redraws,
			Rejects:          s.tally.rejects,
			Front:            archivePts,
		}
		st.Convergence = s.conv.observe(gen, st.FrontHypervolume, s.omega, archivePts)
		s.emitGeneration(st, phases, s.evaluations-evalsBefore, truncated, backfilled)
		s.emitConvergence(st.Convergence)
		if cfg.Progress != nil {
			cfg.Progress(st)
		}
	}

	rs.gen = gen + 1
	if cfg.StagnationLimit > 0 {
		if improved > 0 {
			rs.stagnant = 0
		} else {
			rs.stagnant++
			if rs.stagnant >= cfg.StagnationLimit {
				rs.stagnated = true
				return true, nil
			}
		}
	}
	return false, nil
}

// outputFront is the run's output set, the paper's final front: the
// non-dominated members of Ω in bin (ascending privacy) order, or of archive
// in archive order when Ω is disabled (the ablation mode), cloned.
func (s *search[G]) outputFront(archive []member[G]) []member[G] {
	if s.omega.Enabled() {
		return s.omega.FrontSnapshot()
	}
	front := paretoMembers(archive)
	for i := range front {
		front[i] = front[i].clone()
	}
	return front
}

// assignFitness computes the configured engine's fitness over points. The
// SPEA2 path runs on the search's persistent scratch: the returned Fitness
// aliases it and is valid until the next assignFitness or selectEnvironment
// call.
func (s *search[G]) assignFitness(pts []pareto.Point) emoo.Fitness {
	if s.cfg.Engine == EngineNSGA2 {
		return emoo.NSGA2Fitness(pts)
	}
	var mark time.Time
	if s.timed {
		mark = time.Now()
	}
	fit := s.emooScratch.AssignFitness(pts, s.cfg.emooConfig())
	if s.timed {
		s.fitnessDur += time.Since(mark)
	}
	return fit
}

// selectEnvironment runs the configured engine's environmental selection.
// The returned index slice aliases the scratch and must be consumed before
// the next scratch call.
func (s *search[G]) selectEnvironment(pts []pareto.Point) ([]int, error) {
	if s.cfg.Engine == EngineNSGA2 {
		return emoo.NSGA2Select(pts, s.cfg.ArchiveSize)
	}
	fit := s.assignFitness(pts)
	var mark time.Time
	if s.timed {
		mark = time.Now()
	}
	sel, err := s.emooScratch.SelectEnvironment(pts, fit, s.cfg.ArchiveSize, s.cfg.emooConfig())
	if s.timed {
		s.truncateDur += time.Since(mark)
	}
	return sel, err
}

// realize repairs, evaluates and — where evaluation is impossible (singular
// matrix, unrepairable bound) — replaces genomes with fresh random feasible
// ones. Repair and evaluation are pure, so they run on a worker pool, each
// worker evaluating through its own exclusive scratch; genome replacement
// draws from the sequential RNG in index order, so the output is bit-for-bit
// identical at every worker count.
func (s *search[G]) realize(genomes []G) ([]member[G], error) {
	out := make([]member[G], len(genomes))
	if cap(s.outcomes) < len(genomes) {
		s.outcomes = make([]genomeOutcome, len(genomes))
	}
	oc := s.outcomes[:len(genomes)]
	s.parallelFor(len(genomes), func(w, i int) {
		out[i].Genome = genomes[i]
		out[i].Eval, oc[i] = s.geno.evaluate(w, genomes[i])
	})
	s.evaluations += len(genomes)
	for i := range oc {
		s.tally.add(oc[i])
	}

	// Replace failures sequentially on worker 0's scratch, re-drawing until
	// feasible. A fresh random genome repairs successfully with overwhelming
	// probability, so this loop terminates quickly; a safety budget guards
	// pathological configurations.
	const maxRedraws = 10000
	redraws := 0
	for i := range out {
		for !oc[i].ok {
			if redraws++; redraws > maxRedraws {
				return nil, fmt.Errorf("%w: could not generate a feasible matrix for delta=%v", ErrInfeasibleBound, s.cfg.Delta)
			}
			g := s.geno.random(s.rng)
			out[i].Genome = g
			out[i].Eval, oc[i] = s.geno.evaluate(0, g)
			s.evaluations++
			s.tally.redraws++
			s.tally.add(oc[i])
		}
	}
	return out, nil
}

// parallelFor runs fn(worker, i) for i in [0, n) on the configured worker
// count. The worker index names the calling goroutine, so each can own
// exclusive scratch; results must be written to per-index slots, and the
// dynamic item-to-worker assignment then never affects outputs.
func (s *search[G]) parallelFor(n int, fn func(worker, i int)) {
	workers := s.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
