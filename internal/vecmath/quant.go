package vecmath

import "math"

// bfloat16 conversions: the dist codec's bf16 wire format (and the
// in-process mesh's matching rounding) ships gradient values and biases as
// the high 16 bits of their float32 encoding, halving the exchanged bytes.

// BF16FromF32 converts a float32 to bfloat16 (the high 16 bits of the
// IEEE-754 encoding) with round-to-nearest-even. NaNs are quieted rather
// than rounded, so they cannot turn into infinities.
func BF16FromF32(x float32) uint16 {
	u := math.Float32bits(x)
	if u&0x7fffffff > 0x7f800000 { // NaN
		return uint16(u>>16) | 0x0040
	}
	u += 0x7fff + (u >> 16 & 1)
	return uint16(u >> 16)
}

// F32FromBF16 widens a bfloat16 back to float32 (exact: bf16 values are a
// subset of float32).
func F32FromBF16(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}
