package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Options tunes experiment cost. Quick mode shrinks workloads so the whole
// suite runs in CI; full mode uses paper-scale batches where feasible.
type Options struct {
	Quick bool
}

// Result is a completed experiment.
type Result struct {
	ID    string
	Title string
	Text  string
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// Entry is one registry row: the experiment's ID and the table/figure it
// reproduces. The registry is the single source of truth for the
// experiment index — cmd/experiments prints it and DESIGN.md's index is
// generated from it (a drift test pins the two together).
type Entry struct {
	ID    string
	Title string
}

// registry maps experiment IDs to runners, with insertion order retained
// in entries.
var (
	registry = map[string]Runner{}
	entries  []Entry
)

func register(id, title string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	entries = append(entries, Entry{ID: id, Title: title})
}

// Run executes the experiment with the given ID. The result's ID and Title
// come from the registry, so runners only produce the body text.
func Run(id string, opts Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := r(opts)
	if err != nil {
		return nil, err
	}
	res.ID = id
	for _, e := range entries {
		if e.ID == id {
			res.Title = e.Title
			break
		}
	}
	return res, nil
}

// IDs lists all registered experiments in index order.
func IDs() []string {
	idx := Index()
	out := make([]string, len(idx))
	for i, e := range idx {
		out[i] = e.ID
	}
	return out
}

// Index returns the registry rows in presentation order: figures by
// number, then tables by number, then the named sweeps alphabetically.
// Registration order is file-name order (package init), which is not a
// meaningful order to show users or pin DESIGN.md to.
func Index() []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	sort.SliceStable(out, func(i, j int) bool {
		ci, ni := splitID(out[i].ID)
		cj, nj := splitID(out[j].ID)
		if ci != cj {
			return ci < cj
		}
		if ni != nj {
			return ni < nj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// splitID maps an experiment ID onto its sort key: class 0 for figN,
// class 1 for tableN (with their numbers), class 2 for everything else.
func splitID(id string) (class, num int) {
	for c, prefix := range []string{"fig", "table"} {
		if !strings.HasPrefix(id, prefix) {
			continue
		}
		if n, err := strconv.ParseUint(id[len(prefix):], 10, 32); err == nil {
			return c, int(n)
		}
	}
	return 2, 0
}

// IndexMarkdown renders the registry as the markdown table embedded in
// DESIGN.md's experiment index. DESIGN.md must carry this table verbatim
// between its index markers; TestDesignExperimentIndexInSync enforces it,
// and `go run ./cmd/experiments -design` prints it for regeneration.
func IndexMarkdown() string {
	var sb strings.Builder
	sb.WriteString("| ID | Reproduces |\n|---|---|\n")
	for _, e := range Index() {
		fmt.Fprintf(&sb, "| %s | %s |\n", e.ID, e.Title)
	}
	return sb.String()
}

// RunAll executes every experiment in order.
func RunAll(opts Options) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// --- shared formatting and statistics ----------------------------------------

// concat flattens per-table lookups into one stream (epoch-style sampling).
func concat(samples [][]float32) []float32 {
	var total int
	for _, s := range samples {
		total += len(s)
	}
	out := make([]float32, 0, total)
	for _, s := range samples {
		out = append(out, s...)
	}
	return out
}

// moments returns mean, std, and excess kurtosis of a sample.
func moments(x []float32) (mean, std, kurtosis float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0, 0
	}
	for _, v := range x {
		mean += float64(v)
	}
	mean /= n
	var m2, m4 float64
	for _, v := range x {
		d := float64(v) - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return mean, 0, 0
	}
	return mean, math.Sqrt(m2), m4/(m2*m2) - 3
}

// table renders rows as an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
