package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Table is a multi-attribute categorical data set: named attributes, each
// with a named category domain, and rows of category indices. It is the
// data layer under the mining package's consumers and the rrmine CLI.
type Table struct {
	attrs []Attribute
	rows  [][]int
}

// Attribute describes one column of a table.
type Attribute struct {
	// Name of the column.
	Name string
	// Categories lists the category labels; a value v means Categories[v].
	Categories []string
}

// Table errors.
var (
	// ErrBadTable reports a structurally invalid table or row.
	ErrBadTable = errors.New("dataset: invalid table")
	// ErrUnknownCategory reports a CSV cell not present in the attribute's
	// domain.
	ErrUnknownCategory = errors.New("dataset: unknown category label")
)

// NewTable creates an empty table with the given attributes.
func NewTable(attrs []Attribute) (*Table, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrBadTable)
	}
	seen := map[string]bool{}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("%w: attribute %d has no name", ErrBadTable, i)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("%w: duplicate attribute %q", ErrBadTable, a.Name)
		}
		seen[a.Name] = true
		if len(a.Categories) < 2 {
			return nil, fmt.Errorf("%w: attribute %q has %d categories", ErrBadTable, a.Name, len(a.Categories))
		}
		cats := map[string]bool{}
		for _, c := range a.Categories {
			if cats[c] {
				return nil, fmt.Errorf("%w: attribute %q has duplicate category %q", ErrBadTable, a.Name, c)
			}
			cats[c] = true
		}
	}
	out := make([]Attribute, len(attrs))
	for i, a := range attrs {
		out[i] = Attribute{Name: a.Name, Categories: append([]string(nil), a.Categories...)}
	}
	return &Table{attrs: out}, nil
}

// Attributes returns the schema (copies).
func (t *Table) Attributes() []Attribute {
	out := make([]Attribute, len(t.attrs))
	for i, a := range t.attrs {
		out[i] = Attribute{Name: a.Name, Categories: append([]string(nil), a.Categories...)}
	}
	return out
}

// Sizes returns the per-attribute category counts.
func (t *Table) Sizes() []int {
	out := make([]int, len(t.attrs))
	for i, a := range t.attrs {
		out[i] = len(a.Categories)
	}
	return out
}

// AttributeIndex returns the column index of the named attribute.
func (t *Table) AttributeIndex(name string) (int, error) {
	for i, a := range t.attrs {
		if a.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: no attribute %q", ErrBadTable, name)
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i (read-only view).
func (t *Table) Row(i int) []int { return t.rows[i] }

// Rows returns all rows; the caller must treat them as read-only.
func (t *Table) Rows() [][]int { return t.rows }

// Append validates and adds a row of category indices.
func (t *Table) Append(row []int) error {
	if len(row) != len(t.attrs) {
		return fmt.Errorf("%w: row has %d values, want %d", ErrBadTable, len(row), len(t.attrs))
	}
	for d, v := range row {
		if v < 0 || v >= len(t.attrs[d].Categories) {
			return fmt.Errorf("%w: attribute %q value %d out of range", ErrBadTable, t.attrs[d].Name, v)
		}
	}
	t.rows = append(t.rows, append([]int(nil), row...))
	return nil
}

// Column returns a copy of one attribute's values across all rows.
func (t *Table) Column(d int) ([]int, error) {
	if d < 0 || d >= len(t.attrs) {
		return nil, fmt.Errorf("%w: column %d", ErrBadTable, d)
	}
	out := make([]int, len(t.rows))
	for i, row := range t.rows {
		out[i] = row[d]
	}
	return out, nil
}

// Marginal returns the empirical distribution of one attribute.
func (t *Table) Marginal(d int) ([]float64, error) {
	col, err := t.Column(d)
	if err != nil {
		return nil, err
	}
	c, err := NewCategorical(len(t.attrs[d].Categories), col)
	if err != nil {
		return nil, err
	}
	return c.Distribution(), nil
}

// WriteCSV emits the table with a header row and category labels.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.attrs))
	for i, a := range t.attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.attrs))
	for _, row := range t.rows {
		for d, v := range row {
			rec[d] = t.attrs[d].Categories[v]
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table from CSV. With a nil schema the schema is inferred:
// the first row is the header and each column's domain is the sorted set of
// distinct labels encountered (numeric labels sort numerically). With a
// schema, every cell must belong to its attribute's declared domain.
func ReadCSV(r io.Reader, schema []Attribute) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("%w: empty input", ErrBadTable)
	}
	header := records[0]
	body := records[1:]

	if schema == nil {
		schema, err = inferSchema(header, body)
		if err != nil {
			return nil, err
		}
	} else if len(schema) != len(header) {
		return nil, fmt.Errorf("%w: header has %d columns, schema has %d", ErrBadTable, len(header), len(schema))
	}

	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	index := make([]map[string]int, len(schema))
	for d, a := range schema {
		index[d] = make(map[string]int, len(a.Categories))
		for v, c := range a.Categories {
			index[d][c] = v
		}
	}
	row := make([]int, len(schema))
	for line, rec := range body {
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("%w: line %d has %d cells, want %d", ErrBadTable, line+2, len(rec), len(schema))
		}
		for d, cell := range rec {
			v, ok := index[d][strings.TrimSpace(cell)]
			if !ok {
				return nil, fmt.Errorf("%w: line %d, attribute %q, label %q", ErrUnknownCategory, line+2, schema[d].Name, cell)
			}
			row[d] = v
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// inferSchema builds per-column domains from the data.
func inferSchema(header []string, body [][]string) ([]Attribute, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("%w: empty header", ErrBadTable)
	}
	domains := make([]map[string]bool, len(header))
	for d := range domains {
		domains[d] = map[string]bool{}
	}
	for line, rec := range body {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%w: line %d has %d cells, want %d", ErrBadTable, line+2, len(rec), len(header))
		}
		for d, cell := range rec {
			domains[d][strings.TrimSpace(cell)] = true
		}
	}
	attrs := make([]Attribute, len(header))
	for d, name := range header {
		cats := make([]string, 0, len(domains[d]))
		for c := range domains[d] {
			cats = append(cats, c)
		}
		sortLabels(cats)
		attrs[d] = Attribute{Name: name, Categories: cats}
	}
	return attrs, nil
}

// sortLabels sorts numerically when every label parses as a number,
// lexicographically otherwise.
func sortLabels(labels []string) {
	numeric := true
	vals := make([]float64, len(labels))
	for i, l := range labels {
		v, err := strconv.ParseFloat(l, 64)
		if err != nil {
			numeric = false
			break
		}
		vals[i] = v
	}
	if numeric {
		sort.Slice(labels, func(a, b int) bool {
			va, _ := strconv.ParseFloat(labels[a], 64)
			vb, _ := strconv.ParseFloat(labels[b], 64)
			return va < vb
		})
		return
	}
	sort.Strings(labels)
}

// SyntheticTable draws rows from an explicit joint distribution over the
// schema (row-major, attribute 0 slowest) — the correlated-table generator
// used by tests and examples.
func SyntheticTable(attrs []Attribute, joint []float64, rows int, r *randx.Source) (*Table, error) {
	t, err := NewTable(attrs)
	if err != nil {
		return nil, err
	}
	// The product of identity channels is the plain product space of the
	// schema, so its Unindex decodes a drawn joint cell into a row.
	ids := make([]*rr.Matrix, len(attrs))
	for d, n := range t.Sizes() {
		ids[d] = rr.Identity(n)
	}
	space, err := rr.NewProduct(ids...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadTable, err)
	}
	cells, err := space.Cells()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadTable, err)
	}
	if len(joint) != cells {
		return nil, fmt.Errorf("%w: joint has %d cells, want %d", ErrBadTable, len(joint), cells)
	}
	alias, err := randx.NewAlias(joint)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for i := 0; i < rows; i++ {
		if err := t.Append(space.Unindex(alias.Draw(r))); err != nil {
			return nil, err
		}
	}
	return t, nil
}
