// AVX2 kernels. Every kernel works on whole 8-cell blocks (or 8-function
// lane groups) with unaligned loads and performs, per lane, exactly the
// float32 operations of its Go reference in vecmath.go / adam.go /
// lanes.go in the same order — separate multiply and add, never FMA — so
// results are bit-identical. The Go wrappers own argument checks, the
// n mod 8 tail and the per-call size bound.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(alpha float32, x, y *float32, blocks int)
// y[i] += alpha*x[i] over blocks*8 cells.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ blocks+24(FP), CX
	SHLQ $5, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  axpy_done

axpy_loop:
	VMULPS  (SI)(AX*1), Y0, Y1
	VADDPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy_loop

axpy_done:
	VZEROUPPER
	RET

// func outerAccAVX2(d float32, x, w, grad, acc *float32, blocks int)
// acc[i] += d*w[i]; g[i] += d*x[i] over blocks*8 cells.
TEXT ·outerAccAVX2(SB), NOSPLIT, $0-48
	VBROADCASTSS d+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R12
	MOVQ grad+24(FP), DI
	MOVQ acc+32(FP), DX
	MOVQ blocks+40(FP), CX
	SHLQ $5, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  outer_done

outer_loop:
	VMULPS  (R12)(AX*1), Y0, Y1
	VMULPS  (SI)(AX*1), Y0, Y2
	VADDPS  (DX)(AX*1), Y1, Y1
	VADDPS  (DI)(AX*1), Y2, Y2
	VMOVUPS Y1, (DX)(AX*1)
	VMOVUPS Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     outer_loop

outer_done:
	VZEROUPPER
	RET

// func dot4AVX2(x, r0, r1, r2, r3 *float32, blocks int, out *[4]float32)
// out[k] = the dotUnrolled sum of rk·x over blocks*8 cells: one YMM
// accumulator per row holds dotUnrolled's eight running sums (lane k sums
// cells ≡ k mod 8), reduced (((s0+s1)+(s2+s3))+(s4+s5))+(s6+s7). Four
// rows share each load of x; a single row's add chain is latency-bound, so
// the extra rows are free.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ blocks+40(FP), CX
	MOVQ out+48(FP), DI
	SHLQ $5, CX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ AX, CX
	JGE  dot4_reduce

dot4_loop:
	VMOVUPS (SI)(AX*1), Y4
	VMULPS  (R8)(AX*1), Y4, Y5
	VMULPS  (R9)(AX*1), Y4, Y6
	VMULPS  (R10)(AX*1), Y4, Y7
	VMULPS  (R11)(AX*1), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     dot4_loop

dot4_reduce:
	// Per row: p0=s0+s1, q0=s2+s3 (low half), p1=s4+s5, q1=s6+s7 (high).
	VHADDPS Y1, Y0, Y4 // [p0(0) q0(0) p0(1) q0(1) | p1(0) q1(0) p1(1) q1(1)]
	VHADDPS Y3, Y2, Y5 // the same for rows 2, 3
	VHADDPS Y5, Y4, Y6 // low half: p0+q0 of rows 0..3
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y5, X5
	VSHUFPS $0x88, X5, X4, X7 // p1 of rows 0..3
	VSHUFPS $0xDD, X5, X4, X8 // q1 of rows 0..3
	VADDPS  X7, X6, X6
	VADDPS  X8, X6, X6
	VMOVUPS X6, (DI)
	VZEROUPPER
	RET

// func adamAVX2(w, m, v, grad *float32, blocks int, p *adamParams, skipZero bool) (skipped int)
// One Adam step per cell over blocks*8 cells, lane for lane adamStepGo:
//   gi = g*scale; nm = b1*m + omb1*gi; nv = b2*v + (omb2*gi)*gi
//   w  = w - (alpha*nm)/(sqrt(nv)+eps)
// With skipZero, lanes whose g is ±0 keep their old w/m/v and are counted
// in skipped; a block of eight such lanes is not written at all.
TEXT ·adamAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), R12
	MOVQ blocks+32(FP), CX
	MOVQ p+40(FP), R8
	VBROADCASTSS 0(R8), Y9   // scale
	VBROADCASTSS 4(R8), Y10  // b1
	VBROADCASTSS 8(R8), Y11  // 1-b1
	VBROADCASTSS 12(R8), Y12 // b2
	VBROADCASTSS 16(R8), Y13 // 1-b2
	VBROADCASTSS 20(R8), Y14 // eps
	VBROADCASTSS 24(R8), Y15 // alpha
	VXORPS Y8, Y8, Y8
	SHLQ $5, CX
	XORQ AX, AX
	XORQ R9, R9              // skipped lanes
	CMPQ AX, CX
	JGE  adam_done
	MOVBLZX skipZero+48(FP), R10
	TESTL R10, R10
	JNZ  adam_skip_loop

adam_loop:
	VMULPS  (R12)(AX*1), Y9, Y0 // gi
	VMULPS  (SI)(AX*1), Y10, Y1
	VMULPS  Y0, Y11, Y2
	VADDPS  Y2, Y1, Y1         // nm
	VMULPS  (DX)(AX*1), Y12, Y2
	VMULPS  Y0, Y13, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y3, Y2, Y2         // nv
	VSQRTPS Y2, Y3
	VADDPS  Y14, Y3, Y3
	VMULPS  Y1, Y15, Y4
	VDIVPS  Y3, Y4, Y4
	VMOVUPS (DI)(AX*1), Y5
	VSUBPS  Y4, Y5, Y5
	VMOVUPS Y1, (SI)(AX*1)
	VMOVUPS Y2, (DX)(AX*1)
	VMOVUPS Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adam_loop
	JMP     adam_done

adam_skip_loop:
	VMOVUPS   (R12)(AX*1), Y0
	VCMPPS    $0, Y8, Y0, Y7   // lanes with g == 0
	VMOVMSKPS Y7, R10
	POPCNTL   R10, R11
	ADDQ      R11, R9
	CMPL      R10, $0xFF
	JEQ       adam_skip_next
	VMULPS    Y0, Y9, Y0       // gi
	VMOVUPS   (SI)(AX*1), Y5   // m
	VMULPS    Y5, Y10, Y1
	VMULPS    Y0, Y11, Y2
	VADDPS    Y2, Y1, Y1       // nm
	VBLENDVPS Y7, Y5, Y1, Y5
	VMOVUPS   (DX)(AX*1), Y6   // v
	VMULPS    Y6, Y12, Y2
	VMULPS    Y0, Y13, Y3
	VMULPS    Y0, Y3, Y3
	VADDPS    Y3, Y2, Y2       // nv
	VBLENDVPS Y7, Y6, Y2, Y6
	VSQRTPS   Y2, Y3
	VADDPS    Y14, Y3, Y3
	VMULPS    Y1, Y15, Y4
	VDIVPS    Y3, Y4, Y4
	VMOVUPS   (DI)(AX*1), Y2   // w
	VSUBPS    Y4, Y2, Y3
	VBLENDVPS Y7, Y2, Y3, Y3
	VMOVUPS   Y5, (SI)(AX*1)
	VMOVUPS   Y6, (DX)(AX*1)
	VMOVUPS   Y3, (DI)(AX*1)

adam_skip_next:
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  adam_skip_loop

adam_done:
	VZEROUPPER
	MOVQ R9, skipped+56(FP)
	RET

// func signedSumsAVX2(x *float32, ent *uint32, steps, groups int, dst *float32)
// Lane-parallel LaneSlab.SignedSums over groups*8 functions: lane k of a
// group is one function and walks its steps entries in order, so each lane
// performs signedSumsGo's adds in signedSumsGo's order — gather, flip the
// sign bit, add, never FMA. The gather's destination is zeroed first so no
// gather waits on the previous one.
TEXT ·signedSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ ent+8(FP), DX
	MOVQ steps+16(FP), BX
	MOVQ groups+24(FP), CX
	MOVQ dst+32(FP), DI
	MOVL $0x80000000, AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15 // negate flag

sums_group:
	VXORPS Y0, Y0, Y0
	MOVQ   BX, R8

sums_step:
	VMOVDQU    (DX), Y1
	VPAND      Y15, Y1, Y2 // sign mask
	VPXOR      Y2, Y1, Y1  // coordinate
	VPCMPEQD   Y4, Y4, Y4  // all lanes; the gather clears its mask
	VPXOR      Y3, Y3, Y3
	VGATHERDPS Y4, (SI)(Y1*4), Y3
	VXORPS     Y2, Y3, Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $32, DX
	DECQ       R8
	JNZ        sums_step
	VMOVUPS    Y0, (DI)
	ADDQ       $32, DI
	DECQ       CX
	JNZ        sums_group
	VZEROUPPER
	RET

// func argMaxAVX2(x *float32, ent *uint32, steps, groups int, dst *uint32)
// Lane-parallel LaneSlab.NonZeroArgMax over groups*8 functions: per lane,
// walking positions j in order, a value that is neither ±0 nor NaN
// (ordered compare-not-equal with zero) replaces the lane's best when the
// lane is still empty or the value is strictly greater — so ties keep the
// lower position, as in nonZeroArgMaxGo. Lanes never filled store NoArgMax.
TEXT ·argMaxAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ ent+8(FP), DX
	MOVQ steps+16(FP), BX
	MOVQ groups+24(FP), CX
	MOVQ dst+32(FP), DI
	MOVL $0x7fffffff, AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15 // coordinate mask
	MOVL $1, AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13 // position step
	VXORPS Y14, Y14, Y14  // zero

argmax_group:
	VXORPS   Y5, Y5, Y5 // best value
	VPXOR    Y6, Y6, Y6 // best position
	VPXOR    Y7, Y7, Y7 // position j
	VPCMPEQD Y8, Y8, Y8 // empty lanes
	MOVQ     BX, R8

argmax_step:
	VMOVDQU    (DX), Y1
	VPAND      Y15, Y1, Y1
	VPCMPEQD   Y4, Y4, Y4
	VPXOR      Y3, Y3, Y3
	VGATHERDPS Y4, (SI)(Y1*4), Y3
	VCMPPS     $0x0c, Y14, Y3, Y9 // v != 0, false for NaN (NEQ_OQ)
	VCMPPS     $0x1e, Y5, Y3, Y10 // v > best (GT_OQ)
	VORPS      Y8, Y10, Y10
	VANDPS     Y9, Y10, Y10       // take
	VBLENDVPS  Y10, Y3, Y5, Y5
	VBLENDVPS  Y10, Y7, Y6, Y6
	VANDNPS    Y8, Y9, Y8         // empty &^= valid
	VPADDD     Y13, Y7, Y7
	ADDQ       $32, DX
	DECQ       R8
	JNZ        argmax_step
	VORPS      Y8, Y6, Y6         // empty lanes: NoArgMax
	VMOVDQU    Y6, (DI)
	ADDQ       $32, DI
	DECQ       CX
	JNZ        argmax_group
	VZEROUPPER
	RET

// func packAVX2(dst, mask *byte, x *float32, blocks int, perm *[256][8]uint32) (n int)
// packGo over blocks*8 cells: per block, the lanes whose bits without the
// sign are nonzero make the mask byte, VPERMD by perm moves those lanes in
// order to the front, the whole block is stored at dst, and dst advances
// past the nonzero lanes only. Returns the bytes of dst advanced over; the
// last store reaches 32 bytes past its start.
TEXT ·packAVX2(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  mask+8(FP), SI
	MOVQ  x+16(FP), DX
	MOVQ  blocks+24(FP), CX
	MOVQ  perm+32(FP), R8
	MOVQ  DI, R9
	VPXOR Y15, Y15, Y15

pack_block:
	VMOVDQU   (DX), Y0
	VPSLLD    $1, Y0, Y1
	VPCMPEQD  Y15, Y1, Y1 // ±0 lanes
	VMOVMSKPS Y1, AX
	XORL      $0xff, AX   // nonzero lanes
	MOVB      AX, (SI)
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R8)(BX*1), Y2
	VPERMD    Y0, Y2, Y3
	VMOVDQU   Y3, (DI)
	POPCNTL   AX, AX
	LEAQ      (DI)(AX*4), DI
	ADDQ      $32, DX
	INCQ      SI
	DECQ      CX
	JNZ       pack_block
	VZEROUPPER
	SUBQ      R9, DI
	MOVQ      DI, n+40(FP)
	RET

// func unpackAVX2(x *float32, mask, src *byte, blocks, srcLen int, perm *[256][8]uint32) (done, n int, nonFinite bool)
// unpackGo over up to blocks*8 cells, a block at a time while src holds 32
// bytes from its current position: VPERMD by perm spreads the next values
// over the block's lanes, the lanes whose mask bit is clear are zeroed, and
// src advances past the values used. A lane whose exponent is all ones
// (NaN, ±Inf) sets nonFinite. Returns the blocks done and the bytes of src
// read.
TEXT ·unpackAVX2(SB), NOSPLIT, $0-65
	MOVQ         x+0(FP), DI
	MOVQ         mask+8(FP), SI
	MOVQ         src+16(FP), DX
	MOVQ         blocks+24(FP), CX
	MOVQ         srcLen+32(FP), R10
	MOVQ         perm+40(FP), R8
	MOVQ         DX, R9
	LEAQ         -32(DX)(R10*1), R10 // last start of a whole-block load
	XORQ         R11, R11
	MOVQ         $0x8040201008040201, AX
	VMOVQ        AX, X14
	VPMOVZXBD    X14, Y14            // lane t: 1<<t
	MOVL         $0x7f800000, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13            // the exponent field
	VPXOR        Y12, Y12, Y12       // lanes that held a non-finite value

unpack_block:
	CMPQ         R11, CX
	JGE          unpack_done
	CMPQ         DX, R10
	JGT          unpack_done
	MOVBLZX      (SI)(R11*1), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1
	VPAND        Y14, Y1, Y1
	VPCMPEQD     Y14, Y1, Y1         // lanes whose bit is set
	MOVQ         AX, BX
	SHLQ         $5, BX
	VMOVDQU      (R8)(BX*1), Y2
	VPERMD       (DX), Y2, Y3
	VPAND        Y1, Y3, Y3
	VMOVDQU      Y3, (DI)
	VPAND        Y13, Y3, Y4
	VPCMPEQD     Y13, Y4, Y4         // exponent all ones
	VPOR         Y4, Y12, Y12
	POPCNTL      AX, AX
	LEAQ         (DX)(AX*4), DX
	ADDQ         $32, DI
	INCQ         R11
	JMP          unpack_block

unpack_done:
	VPTEST       Y12, Y12
	SETNE        nonFinite+64(FP)
	VZEROUPPER
	MOVQ         R11, done+48(FP)
	SUBQ         R9, DX
	MOVQ         DX, n+56(FP)
	RET

// func countAVX2(x *float32, blocks int) (n int)
// The number of cells of blocks*8 that are not ±0.
TEXT ·countAVX2(SB), NOSPLIT, $0-24
	MOVQ  x+0(FP), DX
	MOVQ  blocks+8(FP), CX
	MOVQ  CX, R9
	SHLQ  $3, R9         // cells, less the zeros found below
	VPXOR Y15, Y15, Y15

count_block:
	VMOVDQU   (DX), Y0
	VPSLLD    $1, Y0, Y0
	VPCMPEQD  Y15, Y0, Y0 // ±0 lanes
	VMOVMSKPS Y0, AX
	POPCNTL   AX, AX
	SUBQ      AX, R9
	ADDQ      $32, DX
	DECQ      CX
	JNZ       count_block
	VZEROUPPER
	MOVQ      R9, n+16(FP)
	RET
