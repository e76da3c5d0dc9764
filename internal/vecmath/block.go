package vecmath

import "math"

// Block kernels: eight inputs at a time, held transposed — input r's
// coordinate c at xt[c*8+r] — so that one 8-wide load is coordinate c of
// all eight inputs and a LaneSlab function walks its coordinates with plain
// loads instead of gathers. Outputs are function-major by lane: function
// f's value for input r at dst[f*8+r]. Every lane applies the row kernel's
// rule in the row kernel's order — the same adds for the sums, the same
// take test for the argmax — so lane r of a block is bitwise the row
// kernel on input r. The table build hashes weight rows
// this way (Transpose8, then a block kernel, then the block address
// kernels below); a single query keeps the row kernels, which load only
// the coordinates its functions read.

// maxBlockDim bounds the input length the block kernels' vector path
// takes: the assembly forms a coordinate's byte offset in the block,
// coordinate*32, in 32 bits, which also drops the negate flag.
const maxBlockDim = 1 << 26

// Transpose8 fills xt, of length 8*dim, with the n = len(rows)/dim inputs
// held back to back in rows (input r at rows[r*dim:(r+1)*dim], 1 ≤ n ≤ 8)
// transposed: xt[c*8+r] = rows[r*dim+c]. Lanes r ≥ n repeat input n-1, so
// a partial block hashes as eight real inputs whose last lanes the caller
// ignores.
func Transpose8(xt, rows []float32, dim int) {
	if dim <= 0 || len(xt) != 8*dim || len(rows)%dim != 0 || len(rows) == 0 || len(rows) > 8*dim {
		panic("vecmath: Transpose8 shape mismatch")
	}
	n := len(rows) / dim
	done := 0
	if Unrolled && hasAVX2 && n == 8 {
		// One call covers at most maxCells/8 columns: maxCells cells.
		for tiles := dim / 8; done < tiles*8; {
			c := min(tiles*8-done, maxCells/8)
			transpose8AVX2(&xt[done*8], &rows[done], dim, c/8)
			done += c
		}
	}
	for r := 0; r < 8; r++ {
		row := rows[min(r, n-1)*dim:][:dim]
		for c := done; c < dim; c++ {
			xt[c*8+r] = row[c]
		}
	}
}

func (t *LaneSlab) checkBlock(name string, nxt, ndst int) {
	if nxt != 8*t.dim {
		panic("vecmath: " + name + " block length mismatch")
	}
	if ndst < 8*t.n {
		panic("vecmath: " + name + " output shorter than 8 lanes per function")
	}
}

// blockVector reports whether the block kernels' vector path takes this
// slab: the tier is on, a group of eight functions fits the per-call
// bound of maxCells loads, and offsets fit maxBlockDim.
func (t *LaneSlab) blockVector() bool {
	return Unrolled && hasAVX2 && 8*t.steps <= maxCells && t.dim <= maxBlockDim
}

// SignedSumsBlock is SignedSums over the eight transposed inputs of xt
// (len 8·dim): dst[f*8+r] is function f's signed sum over input r, added
// in coordinate order from zero, bitwise SignedSums on that input. dst
// must hold 8 values per function.
func (t *LaneSlab) SignedSumsBlock(dst, xt []float32) {
	t.checkBlock("SignedSumsBlock", len(xt), len(dst))
	if !t.blockVector() {
		signedSumsBlockGo(t, dst, xt)
		return
	}
	full, per := t.n/8, maxCells/(8*t.steps)
	for g := 0; g < full; g += per {
		signedSumsBlockAVX2(&xt[0], &t.ent[g*8*t.steps], t.steps, min(full-g, per), &dst[64*g])
	}
	if full*8 < t.n {
		var out [64]float32
		signedSumsBlockAVX2(&xt[0], &t.ent[full*8*t.steps], t.steps, 1, &out[0])
		copy(dst[64*full:8*t.n], out[:])
	}
}

// NonZeroArgMaxBlock is NonZeroArgMax over the eight transposed inputs of
// xt (len 8·dim): dst[f*8+r] is the position of the largest value among
// function f's coordinates of input r, skipping ±0 and NaN, ties to the
// lower position, or NoArgMax — bitwise NonZeroArgMax on that input. It
// reports whether any value it wrote is NoArgMax. dst must hold 8 values
// per function.
func (t *LaneSlab) NonZeroArgMaxBlock(dst []uint32, xt []float32) (empty bool) {
	t.checkBlock("NonZeroArgMaxBlock", len(xt), len(dst))
	if !t.blockVector() {
		return nonZeroArgMaxBlockGo(t, dst, xt)
	}
	full, per := t.n/8, maxCells/(8*t.steps)
	for g := 0; g < full; g += per {
		empty = argMaxBlockAVX2(&xt[0], &t.ent[g*8*t.steps], t.steps, min(full-g, per), &dst[64*g]) || empty
	}
	if rest := 8 * (t.n - full*8); rest > 0 {
		var out [64]uint32
		argMaxBlockAVX2(&xt[0], &t.ent[full*8*t.steps], t.steps, 1, &out[0])
		copy(dst[64*full:], out[:rest])
		for _, c := range out[:rest] {
			empty = empty || c == NoArgMax
		}
	}
	return empty
}

// signedSumsBlockGo is SignedSumsBlock's Go kernel: signedSumsGo's adds,
// in its order, on eight inputs.
func signedSumsBlockGo(t *LaneSlab, dst, xt []float32) {
	for f := 0; f < t.n; f++ {
		ent := t.ent[t.base(f):]
		var acc [8]float32
		for j := 0; j < t.steps; j++ {
			e := ent[8*j]
			x := xt[int(e&^negFlag)*8:][:8]
			for r := range acc {
				acc[r] += math.Float32frombits(math.Float32bits(x[r]) ^ e&negFlag)
			}
		}
		copy(dst[f*8:f*8+8], acc[:])
	}
}

// nonZeroArgMaxBlockGo is NonZeroArgMaxBlock's Go kernel:
// nonZeroArgMaxGo's keys on eight inputs.
func nonZeroArgMaxBlockGo(t *LaneSlab, dst []uint32, xt []float32) (empty bool) {
	for f := 0; f < t.n; f++ {
		ent := t.ent[t.base(f):]
		var best [8]uint64
		for j := 0; j < t.steps; j++ {
			x := xt[int(ent[8*j]&^negFlag)*8:][:8]
			for r := range best {
				best[r] = max(best[r], argMaxKey(x[r], j))
			}
		}
		for r, b := range best {
			dst[f*8+r] = ^uint32(b)
			empty = empty || b == 0
		}
	}
	return empty
}

// PackAddresses writes the packed bucket addresses of tables 0..tables-1
// for the first n (1 ≤ n ≤ 8) lanes of a block of codes held function-major
// by lane (code f of lane r at codes[f*8+r]): table ti's address for lane r,
// its k codes ti*k..ti*k+k-1 concatenated bits apiece, first code highest,
// goes to dst[ti*stride+r]. It is hashtable's packed addressing, eight rows
// per step.
func PackAddresses(dst []uint32, stride, n int, codes []uint32, k, tables, bits int) {
	checkAddresses("PackAddresses", len(dst), stride, n, len(codes), k, tables)
	if !Unrolled || !hasAVX2 || n < 8 || k > maxCells {
		packAddressesGo(dst, stride, n, codes, k, tables, bits)
		return
	}
	per := maxCells / k
	for t0 := 0; t0 < tables; t0 += per {
		packAddrsAVX2(&dst[t0*stride], stride, &codes[t0*k*8], k, min(tables-t0, per), bits)
	}
}

func packAddressesGo(dst []uint32, stride, n int, codes []uint32, k, tables, bits int) {
	for ti := 0; ti < tables; ti++ {
		run := codes[ti*k*8:][:k*8]
		for r := 0; r < n; r++ {
			var a uint32
			for j := 0; j < k; j++ {
				a = a<<uint(bits) | run[j*8+r]
			}
			dst[ti*stride+r] = a
		}
	}
}

// MixAddresses is PackAddresses for mixed addressing: table ti's address
// for lane r is the seeded 64-bit mix of its k codes —
//
//	h = seed ^ ti*0x9e3779b97f4a7c15
//	h ^= c + 0x9e3779b97f4a7c15 + h<<6 + h>>2   (each code c in order)
//	h ^= h>>33; h *= 0xff51afd7ed558ccd; h ^= h>>33
//
// — truncated to 32 bits and masked. It is hashtable's mixed addressing,
// eight rows per step; the vector path runs the mix in 64-bit lanes and
// builds the multiply from three 32×32→64-bit products, as AVX2 has no
// 64-bit multiply.
func MixAddresses(dst []uint32, stride, n int, codes []uint32, k, tables int, seed uint64, mask uint32) {
	checkAddresses("MixAddresses", len(dst), stride, n, len(codes), k, tables)
	if !Unrolled || !hasAVX2 || n < 8 || k > maxCells {
		mixAddressesGo(dst, stride, n, codes, k, tables, seed, mask)
		return
	}
	per := maxCells / k
	for t0 := 0; t0 < tables; t0 += per {
		mixAddrsAVX2(&dst[t0*stride], stride, &codes[t0*k*8], k, t0, min(tables-t0, per), seed, mask)
	}
}

func mixAddressesGo(dst []uint32, stride, n int, codes []uint32, k, tables int, seed uint64, mask uint32) {
	for ti := 0; ti < tables; ti++ {
		run := codes[ti*k*8:][:k*8]
		for r := 0; r < n; r++ {
			h := seed ^ uint64(ti)*mixGolden
			for j := 0; j < k; j++ {
				h ^= uint64(run[j*8+r]) + mixGolden + h<<6 + h>>2
			}
			h ^= h >> 33
			h *= mixFinal
			h ^= h >> 33
			dst[ti*stride+r] = uint32(h) & mask
		}
	}
}

// MixAddresses' constants: the golden-ratio increment and the finalizer's
// multiplier.
const (
	mixGolden = 0x9e3779b97f4a7c15
	mixFinal  = 0xff51afd7ed558ccd
)

func checkAddresses(name string, ndst, stride, n, ncodes, k, tables int) {
	if n < 1 || n > 8 || k < 1 || tables < 1 || stride < n {
		panic("vecmath: " + name + " shape mismatch")
	}
	if ncodes < 8*k*tables {
		panic("vecmath: " + name + " codes shorter than 8 lanes per code")
	}
	if ndst < (tables-1)*stride+n {
		panic("vecmath: " + name + " output shorter than the tables' regions")
	}
}
