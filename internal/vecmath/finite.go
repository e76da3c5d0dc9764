package vecmath

import "math"

// expBits is a float32's exponent field: all ones on NaN and ±Inf only.
const expBits = 0x7f800000

// AllFinite reports whether no cell of x is NaN or ±Inf.
func AllFinite(x []float32) bool {
	done := 0
	if hasAVX2 {
		for n8 := len(x) &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			if !finiteAVX2(&x[done], c/8) {
				return false
			}
			done += c
		}
	}
	return finiteGo(x[done:])
}

// finiteGo is the Go AllFinite.
func finiteGo(x []float32) bool {
	for _, v := range x {
		if math.Float32bits(v)&expBits == expBits {
			return false
		}
	}
	return true
}
