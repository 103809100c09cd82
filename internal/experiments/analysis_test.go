package experiments

import (
	"strings"
	"testing"
)

func TestCategoryOverlapMoneyInterest(t *testing.T) {
	c := profileCorpus(t)
	m := CategoryOverlap(c)
	if len(m.Categories) != len(c.Categories) {
		t.Fatalf("categories = %v", m.Categories)
	}
	// Diagonal is 1.
	for i := range m.Categories {
		if m.Cosine[i][i] < 0.999 {
			t.Errorf("diagonal %s = %v", m.Categories[i], m.Cosine[i][i])
		}
	}
	// Symmetry.
	for i := range m.Categories {
		for j := range m.Categories {
			if d := m.Cosine[i][j] - m.Cosine[j][i]; d > 1e-9 || d < -1e-9 {
				t.Errorf("asymmetric at %d,%d", i, j)
			}
		}
	}
	// The paper's money-fx/interest overlap must exceed a structurally
	// unrelated pair like earn/ship.
	if m.Pair("money-fx", "interest") <= m.Pair("earn", "ship") {
		t.Errorf("money/interest overlap %v not above earn/ship %v",
			m.Pair("money-fx", "interest"), m.Pair("earn", "ship"))
	}
	// wheat is a grain subset: also heavily overlapped.
	if m.Pair("wheat", "grain") <= m.Pair("wheat", "crude") {
		t.Errorf("wheat/grain overlap %v not above wheat/crude %v",
			m.Pair("wheat", "grain"), m.Pair("wheat", "crude"))
	}
	if m.Pair("bogus", "earn") != 0 {
		t.Error("unknown category overlap non-zero")
	}
	out := m.Format()
	if !strings.Contains(out, "money-fx") || !strings.Contains(out, "1.00") {
		t.Errorf("Format incomplete:\n%s", out)
	}
}

func TestRunConfusion(t *testing.T) {
	if testing.Short() {
		t.Skip("confusion matrix skipped in -short")
	}
	c := profileCorpus(t)
	cm, err := testRun(t).Confusion()
	if err != nil {
		t.Fatalf("Confusion: %v", err)
	}
	if len(cm.Categories) != len(c.Categories) {
		t.Fatalf("categories = %v", cm.Categories)
	}
	totalSupport := 0
	for i := range cm.Categories {
		totalSupport += cm.Support[i]
		for j := range cm.Categories {
			if cm.Rate[i][j] < 0 || cm.Rate[i][j] > 1 {
				t.Errorf("rate[%d][%d] = %v", i, j, cm.Rate[i][j])
			}
		}
	}
	if totalSupport == 0 {
		t.Fatal("no support counted")
	}
	out := cm.Format()
	if !strings.Contains(out, "true category") {
		t.Errorf("Format incomplete:\n%s", out)
	}
}
