// Package eval provides classification metrics (accuracy, precision,
// recall, F1, confusion matrices) and the ASCII renderers that regenerate
// the paper's tables and figures.
package eval

import (
	"fmt"
	"strings"
)

// Confusion is a binary confusion matrix; class 1 = parallelizable.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (prediction, truth) pair.
func (c *Confusion) Add(pred, truth int) {
	switch {
	case pred == 1 && truth == 1:
		c.TP++
	case pred == 1 && truth == 0:
		c.FP++
	case pred == 0 && truth == 0:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded pairs.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c *Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.1f%% P=%.2f R=%.2f F1=%.2f",
		c.TP, c.FP, c.TN, c.FN, 100*c.Accuracy(), c.Precision(), c.Recall(), c.F1())
}

// Table renders rows of cells as an aligned ASCII table with a header.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Pct formats a [0,1] fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f", 100*v) }

// Bars renders labeled horizontal bars (figure-8 style) scaled to width.
func Bars(title string, labels []string, values []float64, width int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	maxLabel := 0
	maxVal := 0.0
	for i, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if values[i] > maxVal {
			maxVal = values[i]
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	for i, l := range labels {
		n := int(values[i] / maxVal * float64(width))
		fmt.Fprintf(&b, "%-*s | %s %.3f\n", maxLabel, l, strings.Repeat("#", n), values[i])
	}
	return b.String()
}

// Curve renders an epoch series (figure-7 style) as a compact sparkline
// plus first/last values.
func Curve(title string, values []float64) string {
	if len(values) == 0 {
		return title + ": (empty)\n"
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  first=%.4f last=%.4f\n  ", title, values[0], values[len(values)-1])
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(marks)-1))
		}
		b.WriteRune(marks[idx])
	}
	b.WriteString("\n")
	return b.String()
}
