package profileutil

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Breakdown is a set of labelled durations.
type Breakdown map[string]time.Duration

// Total sums all buckets.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Share returns bucket/total in [0, 1] (0 if empty).
func (b Breakdown) Share(label string) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b[label]) / float64(total)
}

// Row is one line of a formatted breakdown.
type Row struct {
	Label   string
	Time    time.Duration
	Percent float64
}

// Rows returns the buckets sorted by descending share.
func (b Breakdown) Rows() []Row {
	total := b.Total()
	rows := make([]Row, 0, len(b))
	for label, d := range b {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		rows = append(rows, Row{Label: label, Time: d, Percent: pct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Time != rows[j].Time {
			return rows[i].Time > rows[j].Time
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

// String renders an aligned text table.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %14s %8s\n", "category", "time", "share")
	for _, r := range b.Rows() {
		fmt.Fprintf(&sb, "%-16s %14v %7.1f%%\n", r.Label, r.Time.Round(time.Microsecond), r.Percent)
	}
	fmt.Fprintf(&sb, "%-16s %14v %7.1f%%\n", "total", b.Total().Round(time.Microsecond), 100.0)
	return sb.String()
}
