package disk

import (
	"testing"
	"testing/quick"
)

func TestPaperModelRates(t *testing.T) {
	m := PaperModel()
	// 96 MB read in one second, 60 MB written in one second.
	if got := m.Time(96*MB, 0, 1, 0); got != 1 {
		t.Fatalf("read rate wrong: %v", got)
	}
	if got := m.Time(0, 60*MB, 0, 1); got != 1 {
		t.Fatalf("write rate wrong: %v", got)
	}
}

func TestRefinedModelOverhead(t *testing.T) {
	m := RefinedModel(0.01)
	base := PaperModel().Time(MB, MB, 2, 3)
	if got := m.Time(MB, MB, 2, 3); got != base+0.05 {
		t.Fatalf("overhead wrong: %v vs %v", got, base+0.05)
	}
}

// Property: time is monotone in volumes.
func TestTimeMonotone(t *testing.T) {
	m := PaperModel()
	f := func(a, b uint32) bool {
		t1 := m.Time(int64(a), int64(b), 0, 0)
		t2 := m.Time(int64(a)+MB, int64(b)+MB, 0, 0)
		return t2 > t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
