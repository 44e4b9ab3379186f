package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optrr/internal/rr"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(0.8, 0); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := validateFlags(-0.1, 0); err == nil {
		t.Error("negative warner accepted")
	}
	if err := validateFlags(1.5, 0); err == nil {
		t.Error("warner above one accepted")
	}
	if err := validateFlags(0.8, -1); err == nil {
		t.Error("negative depth accepted")
	}
}

func TestLoadTableDemo(t *testing.T) {
	table, err := loadTable("", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 40000 {
		t.Fatalf("demo rows = %d", table.Len())
	}
	attrs := table.Attributes()
	if len(attrs) != 4 || attrs[3].Name != "approved" {
		t.Fatalf("demo schema = %v", attrs)
	}
	// The demo joint is a proper distribution; marginals must sum to 1 and
	// match their construction.
	inc, err := table.Marginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc[0]-0.4) > 0.01 || math.Abs(inc[2]-0.2) > 0.01 {
		t.Fatalf("income marginal = %v", inc)
	}
}

func TestLoadTableDemoDeterministic(t *testing.T) {
	a, err := loadTable("", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadTable("", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for d := 0; d < 4; d++ {
			if a.Row(i)[d] != b.Row(i)[d] {
				t.Fatal("demo table not deterministic")
			}
		}
	}
}

func TestLoadTableFromCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	content := "color,size\nred,small\nblue,big\nred,big\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	table, err := loadTable(path, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 || len(table.Attributes()) != 2 {
		t.Fatalf("table shape: %d rows, %d attrs", table.Len(), len(table.Attributes()))
	}
}

func TestLoadTableSourceValidation(t *testing.T) {
	if _, err := loadTable("", false, 1); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadTable("x.csv", true, 1); err == nil {
		t.Fatal("two sources accepted")
	}
	if _, err := loadTable("/nonexistent.csv", false, 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWideTableFailsOnlyAtTheJoint loads a 64-column two-valued CSV, whose
// 2^64-cell product space does not fit in an int. Disguising and the
// per-attribute marginals still work; the tree's full-joint estimate fails
// with rr.ErrShape rather than indexing out of range.
func TestWideTableFailsOnlyAtTheJoint(t *testing.T) {
	var sb strings.Builder
	for row := -1; row < 4; row++ {
		for c := 0; c < 64; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			switch {
			case row < 0:
				fmt.Fprintf(&sb, "a%d", c)
			case (row+c)%2 == 0:
				sb.WriteString("x")
			default:
				sb.WriteString("y")
			}
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	table, err := loadTable(path, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	mr, disguised, err := disguiseTable(table, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.EstimateAttributes(disguised, []int{63}); err != nil {
		t.Fatalf("marginal of attribute 63: %v", err)
	}
	if _, err := mr.EstimateJoint(disguised); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("joint of 64 binary attributes: err = %v, want rr.ErrShape", err)
	}
}
