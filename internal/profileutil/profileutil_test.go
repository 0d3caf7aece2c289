package profileutil

import (
	"strings"
	"testing"
	"time"
)

func TestTotalAndShare(t *testing.T) {
	b := Breakdown{"a2a": 6 * time.Second, "mlp": 3 * time.Second, "emb": time.Second}
	if b.Total() != 10*time.Second {
		t.Fatalf("total %v", b.Total())
	}
	if b.Share("a2a") != 0.6 {
		t.Fatalf("share %v", b.Share("a2a"))
	}
	if (Breakdown{}).Share("x") != 0 {
		t.Fatal("empty share should be 0")
	}
}

func TestRowsSorted(t *testing.T) {
	b := Breakdown{"small": time.Second, "big": 5 * time.Second, "mid": 2 * time.Second}
	rows := b.Rows()
	if rows[0].Label != "big" || rows[2].Label != "small" {
		t.Fatalf("rows order: %+v", rows)
	}
	if rows[0].Percent < 62 || rows[0].Percent > 63 {
		t.Fatalf("percent %v", rows[0].Percent)
	}
}

func TestString(t *testing.T) {
	b := Breakdown{"fwd-a2a": 3 * time.Second, "mlp": time.Second}
	s := b.String()
	if !strings.Contains(s, "fwd-a2a") || !strings.Contains(s, "total") {
		t.Fatalf("table missing rows:\n%s", s)
	}
}
