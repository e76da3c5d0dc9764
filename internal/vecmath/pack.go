package vecmath

import (
	"encoding/binary"
	"math"
)

// Mask-coded rows: the dist codec's wire form of a row of float32 cells is
// a presence mask — bit k%8 of byte k/8 set when cell k is nonzero, ±0
// counting as zero — followed by the nonzero values in cell order, each
// little-endian.

// packPerm[m] lists the set bits of m, ascending; expandPerm[m][t] counts
// the set bits of m below bit t. The AVX2 kernels move a block of eight
// cells to and from its packed form with one permute by these.
var packPerm, expandPerm = permTables()

func permTables() (pack, expand [256][8]uint32) {
	for m := range 256 {
		n := uint32(0)
		for t := range 8 {
			expand[m][t] = n
			if m>>t&1 != 0 {
				pack[m][n] = uint32(t)
				n++
			}
		}
	}
	return pack, expand
}

// CountNonZero returns the number of cells of x that are not ±0 — the
// number of set bits in x's presence mask.
func CountNonZero(x []float32) int {
	n, done := 0, 0
	if Unrolled && hasAVX2 {
		for n8 := len(x) &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			n += countAVX2(&x[done], c/8)
			done += c
		}
	}
	for _, v := range x[done:] {
		if math.Float32bits(v)<<1 != 0 {
			n++
		}
	}
	return n
}

// MaskLen returns the byte length of an n-cell row's presence mask.
func MaskLen(n int) int { return (n + 7) / 8 }

// PackNonZero writes x's presence mask to mask and its nonzero values to
// dst, and returns the number of value bytes written. dst must hold 4
// bytes per cell of x — the vector kernel stores every cell and advances
// past the nonzero ones only, so bytes past the returned length are
// scratch — and mask must hold MaskLen(len(x)) bytes.
func PackNonZero(dst, mask []byte, x []float32) int {
	if len(dst) < 4*len(x) || len(mask) < MaskLen(len(x)) {
		panic("vecmath: PackNonZero buffer too short")
	}
	p, done := 0, 0
	if Unrolled && hasAVX2 {
		for n8 := len(x) &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			p += packAVX2(&dst[p], &mask[done/8], &x[done], c/8, &packPerm)
			done += c
		}
	}
	return p + packGo(dst[p:], mask[done/8:MaskLen(len(x))], x[done:])
}

// packGo is the Go PackNonZero: the reference the vector kernel is tested
// against, and the path for block tails and machines without AVX2.
func packGo(dst, mask []byte, x []float32) int {
	clear(mask)
	p := 0
	for k, v := range x {
		if u := math.Float32bits(v); u<<1 != 0 {
			binary.LittleEndian.PutUint32(dst[p:], u)
			mask[k/8] |= 1 << (k % 8)
			p += 4
		}
	}
	return p
}

// UnpackNonZero is PackNonZero's inverse: x[k] is the next value of src
// when mask bit k is set, else +0. It returns the number of bytes read and
// whether every value read is finite — the check rides the unpack, so a
// decoder rejects NaN and ±Inf without a second pass. src must hold a value
// per set bit of the first len(x) mask bits, and may run on past them (the
// vector kernel loads whole 32-byte blocks while src holds them).
func UnpackNonZero(x []float32, mask, src []byte) (n int, finite bool) {
	if len(mask) < MaskLen(len(x)) {
		panic("vecmath: UnpackNonZero mask too short")
	}
	p, done, bad := 0, 0, false
	if Unrolled && hasAVX2 {
		for n8 := len(x) &^ 7; done < n8 && len(src)-p >= 32; {
			c := min(n8-done, maxCells)
			blocks, n, nonFinite := unpackAVX2(&x[done], &mask[done/8], &src[p], c/8, len(src)-p, &expandPerm)
			p += n
			done += 8 * blocks
			bad = bad || nonFinite
			if blocks < c/8 {
				break
			}
		}
	}
	n, finite = unpackGo(x[done:], mask[done/8:], src[p:])
	return p + n, finite && !bad
}

// expBits is a float32's exponent field: all ones on NaN and ±Inf only.
const expBits = 0x7f800000

// AllFinite reports whether no cell of x is NaN or ±Inf.
func AllFinite(x []float32) bool {
	done := 0
	if Unrolled && hasAVX2 {
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

// unpackGo is the Go UnpackNonZero.
func unpackGo(x []float32, mask, src []byte) (int, bool) {
	p, finite := 0, true
	for k := range x {
		x[k] = 0
		if mask[k/8]>>(k%8)&1 != 0 {
			u := binary.LittleEndian.Uint32(src[p:])
			x[k] = math.Float32frombits(u)
			if u&expBits == expBits {
				finite = false
			}
			p += 4
		}
	}
	return p, finite
}
