package core

import (
	"testing"
	"testing/quick"

	"optrr/internal/metrics"
	"optrr/internal/randx"
)

func indAt(privacy, utility float64) Individual {
	return Individual{
		Genome: Genome{{1, 0}, {0, 1}},
		Eval:   metrics.Evaluation{Privacy: privacy, Utility: utility},
	}
}

func TestOmegaDisabled(t *testing.T) {
	o := NewOmega[Genome](0)
	if o.Enabled() {
		t.Fatal("size-0 Omega reports enabled")
	}
	if o.Update(indAt(0.5, 0.1)) {
		t.Fatal("disabled Omega accepted an update")
	}
	if o.Len() != 0 || len(o.Snapshot()) != 0 {
		t.Fatal("disabled Omega non-empty")
	}
	if o.ImproveArchive([]Individual{indAt(0.5, 0.1)}) != 0 {
		t.Fatal("disabled Omega improved an archive")
	}
}

func TestOmegaUpdateKeepsBest(t *testing.T) {
	o := NewOmega[Genome](10)
	if !o.Update(indAt(0.55, 0.3)) {
		t.Fatal("first update rejected")
	}
	if o.Update(indAt(0.552, 0.4)) {
		t.Fatal("worse same-bin entry accepted")
	}
	if !o.Update(indAt(0.551, 0.2)) {
		t.Fatal("better same-bin entry rejected")
	}
	snap := o.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot size = %d, want 1", len(snap))
	}
	if snap[0].Eval.Utility != 0.2 {
		t.Fatalf("bin kept utility %v, want 0.2", snap[0].Eval.Utility)
	}
}

func TestOmegaBinIndexing(t *testing.T) {
	o := NewOmega[Genome](10)
	o.Update(indAt(0.05, 1))  // bin 0
	o.Update(indAt(0.15, 1))  // bin 1
	o.Update(indAt(0.95, 1))  // bin 9
	o.Update(indAt(-0.5, 1))  // clamps to bin 0 (better utility would be needed)
	o.Update(indAt(1.5, 0.5)) // clamps to bin 9, improves it
	if o.Len() != 3 {
		t.Fatalf("occupied bins = %d, want 3", o.Len())
	}
	snap := o.Snapshot()
	if snap[len(snap)-1].Eval.Utility != 0.5 {
		t.Fatal("clamped high-privacy update did not improve the last bin")
	}
}

func TestOmegaSnapshotIsolation(t *testing.T) {
	o := NewOmega[Genome](10)
	o.Update(indAt(0.5, 0.1))
	snap := o.Snapshot()
	snap[0].Genome[0][0] = 42
	snap2 := o.Snapshot()
	if snap2[0].Genome[0][0] == 42 {
		t.Fatal("snapshot shares genome storage with Omega")
	}
}

func TestOmegaUpdateClones(t *testing.T) {
	o := NewOmega[Genome](10)
	ind := indAt(0.5, 0.1)
	o.Update(ind)
	ind.Genome[0][0] = 42
	if o.Snapshot()[0].Genome[0][0] == 42 {
		t.Fatal("Update stored the caller's genome without cloning")
	}
}

func TestOmegaImproveArchive(t *testing.T) {
	o := NewOmega[Genome](10)
	o.Update(indAt(0.55, 0.1))
	archive := []Individual{
		indAt(0.552, 0.5), // same bin, worse utility: should be replaced
		indAt(0.75, 0.05), // different bin: untouched
	}
	replaced := o.ImproveArchive(archive)
	if replaced != 1 {
		t.Fatalf("replaced = %d, want 1", replaced)
	}
	if archive[0].Eval.Utility != 0.1 {
		t.Fatalf("archive[0] utility = %v, want 0.1", archive[0].Eval.Utility)
	}
	if archive[1].Eval.Utility != 0.05 {
		t.Fatal("archive[1] was touched")
	}
}

func TestOmegaFrontSnapshotNonDominated(t *testing.T) {
	o := NewOmega[Genome](100)
	o.Update(indAt(0.30, 0.10))
	o.Update(indAt(0.50, 0.20))
	o.Update(indAt(0.40, 0.30)) // dominated by the 0.50/0.20 entry
	front := o.FrontSnapshot()
	if len(front) != 2 {
		t.Fatalf("front size = %d, want 2", len(front))
	}
	for _, ind := range front {
		if ind.Eval.Privacy == 0.40 {
			t.Fatal("dominated entry survived FrontSnapshot")
		}
	}
}

// TestPropertyOmegaMonotone: per-bin utility never worsens under any update
// sequence (the DESIGN.md invariant).
func TestPropertyOmegaMonotone(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		r := randx.New(seed)
		o := NewOmega[Genome](50)
		best := make(map[int]float64)
		for i := 0; i < int(count); i++ {
			p, u := r.Float64(), r.Float64()
			o.Update(indAt(p, u))
			bin := o.binIndex(p)
			if cur, ok := best[bin]; !ok || u < cur {
				best[bin] = u
			}
		}
		for _, ind := range o.Snapshot() {
			bin := o.binIndex(ind.Eval.Privacy)
			if want, ok := best[bin]; !ok || ind.Eval.Utility != want {
				return false
			}
		}
		return len(best) == o.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOmegaUpdate(b *testing.B) {
	o := NewOmega[Genome](1000)
	r := randx.New(1)
	inds := make([]Individual, 256)
	for i := range inds {
		inds[i] = indAt(r.Float64(), r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Update(inds[i%len(inds)])
	}
}
