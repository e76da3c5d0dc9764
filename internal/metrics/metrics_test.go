package metrics

import (
	"math"
	"testing"
)

func TestPrecisionAt1(t *testing.T) {
	scores := []float32{0.1, 0.9, 0.3}
	if PrecisionAt1(scores, nil, []int32{1}) != 1 {
		t.Fatal("top class is a label")
	}
	if PrecisionAt1(scores, nil, []int32{0, 2}) != 0 {
		t.Fatal("top class is not a label")
	}
	// With an id map, position 1 maps to class 7.
	if PrecisionAt1(scores, []int32{4, 7, 9}, []int32{7}) != 1 {
		t.Fatal("id mapping ignored")
	}
	if PrecisionAt1(nil, nil, []int32{1}) != 0 {
		t.Fatal("empty scores")
	}
}

func TestPrecisionAtK(t *testing.T) {
	scores := []float32{0.9, 0.8, 0.7, 0.1}
	if got := PrecisionAtK(scores, nil, []int32{0, 2}, 3); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("P@3 = %v, want 2/3", got)
	}
	if got := PrecisionAtK(scores, nil, []int32{3}, 10); math.Abs(got-1.0/4) > 1e-9 {
		t.Fatalf("k clamped to len: %v", got)
	}
	if PrecisionAtK(scores, nil, nil, 3) != 0 {
		t.Fatal("no labels should give 0")
	}
}

func TestCurveQueries(t *testing.T) {
	c := Curve{Name: "x"}
	c.Add(Point{Iter: 10, Seconds: 1, Value: 0.1})
	c.Add(Point{Iter: 20, Seconds: 2, Value: 0.3})
	c.Add(Point{Iter: 30, Seconds: 3, Value: 0.25})

	if c.Best() != 0.3 {
		t.Fatalf("Best = %v", c.Best())
	}
	if s, ok := c.TimeToValue(0.2); !ok || s != 2 {
		t.Fatalf("TimeToValue = %v, %v", s, ok)
	}
	if _, ok := c.TimeToValue(0.9); ok {
		t.Fatal("unreachable target reported reached")
	}
	if c.Last().Iter != 30 {
		t.Fatalf("Last = %+v", c.Last())
	}
}

func TestCurveEmpty(t *testing.T) {
	var c Curve
	if c.Best() != 0 || c.Last().Iter != 0 {
		t.Fatal("empty curve accessors")
	}
	if _, ok := c.TimeToValue(0.1); ok {
		t.Fatal("empty curve reached a target")
	}
}

func TestCurveString(t *testing.T) {
	c := Curve{Name: "n"}
	c.Add(Point{Iter: 1, Seconds: 2, Value: 0.5})
	if got := c.String(); got == "" {
		t.Fatal("empty String()")
	}
}
