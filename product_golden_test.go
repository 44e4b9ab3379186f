package optrr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// goldenProductSetup returns the fixed three-attribute channel and records
// the multi-attribute golden test runs on: 20000 records span three batch
// chunks, and the matrices mix two schemes so that a reordered attribute or
// transposed column changes every hash.
func goldenProductSetup(t *testing.T) ([]*Matrix, [][]int) {
	t.Helper()
	m0, err := Warner(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := UniformPerturbation(4, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ms := []*Matrix{m0, m1, m2}
	rng := NewRand(2024)
	recs := make([][]int, 20000)
	for k := range recs {
		recs[k] = []int{rng.Intn(3), rng.Intn(4), rng.Intn(2)}
	}
	return ms, recs
}

// hashRecords folds disguised records into one FNV-64a value.
func hashRecords(recs [][]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, rec := range recs {
		for _, v := range rec {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// hashFloats folds the IEEE-754 bits of xs into one FNV-64a value.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestMultiAttributeGolden pins the public multi-attribute pipeline bit for
// bit: the serial MultiRR disguise at a fixed seed, the batch disguise at
// one and four workers, and the factored inversion estimate of the batch
// output. Any change to the alias tables, the draw order, the per-attribute
// seed derivation, the index layout or the inversion arithmetic moves a
// hash. (The estimate bits assume no fused multiply-add, as on amd64.)
func TestMultiAttributeGolden(t *testing.T) {
	const (
		wantSerial   = uint64(0x4e4f0396b8eefea5)
		wantBatch    = uint64(0xfd110e2104c5f304)
		wantEstimate = uint64(0xcfc8c55e302fd28a)
	)
	ms, recs := goldenProductSetup(t)

	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := mr.Disguise(recs, NewRand(77))
	if err != nil {
		t.Fatal(err)
	}
	if got := hashRecords(serial); got != wantSerial {
		t.Errorf("MultiRR.Disguise hash = %#x, want %#x", got, wantSerial)
	}

	for _, workers := range []int{1, 4} {
		batch, err := DisguiseMultiBatch(ms, recs, 99, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRecords(batch); got != wantBatch {
			t.Errorf("DisguiseMultiBatch(workers=%d) hash = %#x, want %#x", workers, got, wantBatch)
		}
		est, err := EstimateJointInversion(ms, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashFloats(est); got != wantEstimate {
			t.Errorf("EstimateJointInversion(workers=%d) hash = %#x, want %#x", workers, got, wantEstimate)
		}
	}
}
