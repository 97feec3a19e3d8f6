// Package metrics provides the statistics and reporting helpers used by
// the experiment harness: summary statistics (the cost-distribution
// figures print medians), the least-squares fit through the origin (the
// Θ-vs-d lines of Figure 12), and aligned-text table rendering.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FitThroughOrigin returns the least-squares slope of y = slope·x (the
// form of the paper's Θ ≈ c·d estimates in Figure 12).
func FitThroughOrigin(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("metrics: FitThroughOrigin needs matched non-empty input")
	}
	var sxx, sxy float64
	for i := range xs {
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	if sxx == 0 {
		panic("metrics: FitThroughOrigin with all-zero x")
	}
	return sxy / sxx
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{Headers: headers} }

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	if len(row) != len(t.Headers) {
		panic(fmt.Sprintf("metrics: row has %d cells for %d headers", len(row), len(t.Headers)))
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
