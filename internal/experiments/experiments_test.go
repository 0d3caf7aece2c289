package experiments

import (
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true} }

func runOK(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || res.Text == "" {
		t.Fatalf("%s: empty result", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"table1", "table2", "table3", "table4", "table5", "table6",
		"overlap", "scaling"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", quick()); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestFig6(t *testing.T) {
	res := runOK(t, "fig6")
	if !strings.Contains(res.Text, "10131227") {
		t.Fatal("fig6 missing the largest Kaggle table")
	}
}

func TestFig4(t *testing.T) {
	res := runOK(t, "fig4")
	if !strings.Contains(res.Text, "false prediction") {
		t.Fatalf("fig4 text:\n%s", res.Text)
	}
}

func TestTable3RanksAscending(t *testing.T) {
	res := runOK(t, "table3")
	if !strings.Contains(res.Text, "TAB. ID") {
		t.Fatalf("table3 text:\n%s", res.Text)
	}
}

func TestTable2HasAllTables(t *testing.T) {
	res := runOK(t, "table2")
	for _, tok := range []string{"kaggle", "terabyte", "counts:"} {
		if !strings.Contains(res.Text, tok) {
			t.Fatalf("table2 missing %q:\n%s", tok, res.Text)
		}
	}
}

func TestTable6WindowSweep(t *testing.T) {
	res := runOK(t, "table6")
	if !strings.Contains(res.Text, "w=255") {
		t.Fatalf("table6 text:\n%s", res.Text)
	}
	// Window 32 column is the 1.00x baseline.
	if !strings.Contains(res.Text, "1.00x") {
		t.Fatalf("missing normalized baseline:\n%s", res.Text)
	}
}

func TestFig15(t *testing.T) {
	res := runOK(t, "fig15")
	if !strings.Contains(res.Text, "16 chunks") {
		t.Fatalf("fig15 text:\n%s", res.Text)
	}
}

func TestLaunchModelSpeedupGrowsWithChunks(t *testing.T) {
	m := defaultLaunchModel()
	total := int64(16 << 20)
	prev := 0.0
	for _, k := range []int{2, 4, 8, 16} {
		s := m.speedup(total, k)
		if s <= prev {
			t.Fatalf("speedup should grow with chunk count: %v at k=%d", s, k)
		}
		prev = s
	}
	if prev < 1.2 || prev > 4 {
		t.Fatalf("16-chunk speedup %v outside the paper's plausible band (max 2.04x)", prev)
	}
}

func TestLaunchModelSmallBlocksBenefitMore(t *testing.T) {
	// §IV-D: 8MB blocks benefit ~1.86x more than 64MB blocks.
	m := defaultLaunchModel()
	small := m.speedup(8<<20, 8)
	large := m.speedup(64<<20, 8)
	if small <= large {
		t.Fatalf("small blocks should benefit more: 8MB %.2fx vs 64MB %.2fx", small, large)
	}
}

func TestLaunchModelSingleChunkNearNeutral(t *testing.T) {
	m := defaultLaunchModel()
	s := m.speedup(64<<20, 1)
	if s < 1.0 || s > 1.5 {
		t.Fatalf("single huge chunk should be near-neutral, got %.2fx", s)
	}
}

func TestFig11ComparesCompressors(t *testing.T) {
	res := runOK(t, "fig11")
	for _, name := range []string{"ours-hybrid", "cusz-like", "fz-gpu-like", "lz4-like", "deflate"} {
		if !strings.Contains(res.Text, name) {
			t.Fatalf("fig11 missing %s:\n%s", name, res.Text)
		}
	}
}

func TestFig1BreakdownDominatedByA2A(t *testing.T) {
	res := runOK(t, "fig1")
	if !strings.Contains(res.Text, "all-to-all share") {
		t.Fatalf("fig1 text:\n%s", res.Text)
	}
}

func TestFig13(t *testing.T) {
	res := runOK(t, "fig13")
	if !strings.Contains(res.Text, "CR vlz") {
		t.Fatalf("fig13 text:\n%s", res.Text)
	}
}

func TestFig14(t *testing.T) {
	res := runOK(t, "fig14")
	if !strings.Contains(res.Text, "phase") {
		t.Fatalf("fig14 text:\n%s", res.Text)
	}
}

func TestTable1(t *testing.T) {
	res := runOK(t, "table1")
	if !strings.Contains(res.Text, "false-pred") {
		t.Fatalf("table1 text:\n%s", res.Text)
	}
}
