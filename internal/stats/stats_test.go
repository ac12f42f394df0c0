package stats

import "testing"

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("mean wrong")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.137) != "13.7%" {
		t.Fatalf("Pct: %s", Pct(0.137))
	}
	if Sci(1234567) != "1.23e+06" {
		t.Fatalf("Sci: %s", Sci(1234567))
	}
}
