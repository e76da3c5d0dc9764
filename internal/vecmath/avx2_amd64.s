// AVX2 kernels. Every kernel works on whole 8-cell blocks (or 8-function
// lane groups) with unaligned loads and performs, per lane, exactly the
// float32 operations of its Go reference in vecmath.go / adam.go /
// lanes.go / finite.go in the same order — separate multiply and add, never FMA — so
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

// func prefetchT0(p *float32, n int)
// PREFETCHT0 on each 64-byte line of the n > 0 bytes from p: a hint that
// loads no register and cannot fault. The wrapper bounds n.
TEXT ·prefetchT0(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	LEAQ -1(SI)(CX*1), DX
	ANDQ $-64, SI

prefetch_loop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	CMPQ SI, DX
	JLS  prefetch_loop
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

// func axpyRowsAVX2(dst *float32, rows *[]float32, terms *Term, nterms, col, blocks int)
// dst[i] += Coef*rows[K][col+i] over blocks*8 cells for the nterms (≥ 1)
// terms in order. Each 64-cell chunk of dst stays in Y0–Y7 while every
// term streams through it — one broadcast coefficient, eight separate
// multiplies and adds — and is stored once; remaining 8-cell blocks take
// the terms one block at a time. A term is 8 bytes (K int32, Coef
// float32); a row is a 24-byte slice header whose data pointer is read.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ terms+16(FP), DX
	MOVQ nterms+24(FP), BX
	MOVQ col+32(FP), R8
	SHLQ $2, R8 // byte offset of dst's first cell in a row
	MOVQ blocks+40(FP), CX

rows_chunk:
	CMPQ    CX, $8
	JLT     rows_block
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    DX, R9
	MOVQ    BX, R10

rows_chunk_term:
	MOVLQSX      0(R9), R11
	VBROADCASTSS 4(R9), Y8
	LEAQ         (R11)(R11*2), R11
	MOVQ         (SI)(R11*8), R12
	ADDQ         R8, R12
	VMULPS       0(R12), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R12), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(R12), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(R12), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       128(R12), Y8, Y13
	VADDPS       Y13, Y4, Y4
	VMULPS       160(R12), Y8, Y14
	VADDPS       Y14, Y5, Y5
	VMULPS       192(R12), Y8, Y15
	VADDPS       Y15, Y6, Y6
	VMULPS       224(R12), Y8, Y9
	VADDPS       Y9, Y7, Y7
	ADDQ         $8, R9
	DECQ         R10
	JNZ          rows_chunk_term
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VMOVUPS      Y4, 128(DI)
	VMOVUPS      Y5, 160(DI)
	VMOVUPS      Y6, 192(DI)
	VMOVUPS      Y7, 224(DI)
	ADDQ         $256, DI
	ADDQ         $256, R8
	SUBQ         $8, CX
	JMP          rows_chunk

rows_block:
	TESTQ   CX, CX
	JZ      rows_done
	VMOVUPS (DI), Y0
	MOVQ    DX, R9
	MOVQ    BX, R10

rows_block_term:
	MOVLQSX      0(R9), R11
	VBROADCASTSS 4(R9), Y8
	LEAQ         (R11)(R11*2), R11
	MOVQ         (SI)(R11*8), R12
	VMULPS       (R12)(R8*1), Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $8, R9
	DECQ         R10
	JNZ          rows_block_term
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, R8
	DECQ         CX
	JMP          rows_block

rows_done:
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

// func finiteAVX2(x *float32, blocks int) (ok bool)
// Whether no cell of blocks*8 has an all-ones exponent (NaN, ±Inf).
TEXT ·finiteAVX2(SB), NOSPLIT, $0-17
	MOVQ         x+0(FP), DX
	MOVQ         blocks+8(FP), CX
	MOVL         $0x7f800000, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13      // the exponent field
	VPXOR        Y12, Y12, Y12 // lanes that held a non-finite value

finite_block:
	VPAND    (DX), Y13, Y0
	VPCMPEQD Y13, Y0, Y0 // exponent all ones
	VPOR     Y0, Y12, Y12
	ADDQ     $32, DX
	DECQ     CX
	JNZ      finite_block
	VPTEST   Y12, Y12
	SETEQ    ok+16(FP)
	VZEROUPPER
	RET

// The polar transform's constants, each in all four lanes of a 32-byte
// row so that it can be an instruction's memory operand. The log's are
// math's log_amd64.s constants, written as there.
#define POLAR4(off, v) DATA polar<>+(off)(SB)/8, v; DATA polar<>+(off+8)(SB)/8, v; DATA polar<>+(off+16)(SB)/8, v; DATA polar<>+(off+24)(SB)/8, v

POLAR4(0, $0x000FFFFFFFFFFFFF) // mantissa field
POLAR4(32, $0.5)
POLAR4(64, $0x4330000000000000) // 2^52
POLAR4(96, $4503599627371518.0) // 2^52 + 1022
POLAR4(128, $7.07106781186547524401e-01) // sqrt(2)/2
POLAR4(160, $1.0)
POLAR4(192, $2.0)
POLAR4(224, $1.479819860511658591e-01) // L7
POLAR4(256, $1.818357216161805012e-01) // L5
POLAR4(288, $2.857142874366239149e-01) // L3
POLAR4(320, $6.666666666666735130e-01) // L1
POLAR4(352, $1.531383769920937332e-01) // L6
POLAR4(384, $2.222219843214978396e-01) // L4
POLAR4(416, $3.999999999940941908e-01) // L2
POLAR4(448, $1.90821492927058770002e-10) // Ln2Lo
POLAR4(480, $6.93147180369123816490e-01) // Ln2Hi
POLAR4(512, $-2.0)
GLOBL polar<>(SB), RODATA|NOPTR, $544

// func polarFactorsAVX2(f, s *float64, quads int)
// f[i] = sqrt(-2*log(s[i])/s[i]) over quads*4 cells with 0 < s[i] < 1
// normal, f may be s. The log is math's amd64 archLog in four lanes: the
// same frexp by bit operations (k from the exponent field exactly, through
// the 2^52 trick in place of CVTSL2SD; f1 <= sqrt(2)/2 takes k-1 and 2*f1,
// as archLog's CMPSD NLT does) and the same multiplies, adds and divide in
// the same order, never FMA, so every lane rounds as archLog rounds; its
// special cases (0, negative, NaN, Inf) cannot occur here.
TEXT ·polarFactorsAVX2(SB), NOSPLIT, $0-24
	MOVQ f+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ quads+16(FP), CX

polar_quad:
	VMOVUPD (SI), Y2                     // s
	VANDPD  polar<>+0(SB), Y2, Y3
	VORPD   polar<>+32(SB), Y3, Y3       // f1 in [0.5, 1)
	VPSRLQ  $52, Y2, Y4                  // biased exponent (s > 0)
	VPOR    polar<>+64(SB), Y4, Y4       // 2^52 + exponent
	VSUBPD  polar<>+96(SB), Y4, Y4       // k = exponent - 1022
	VCMPPD  $2, polar<>+128(SB), Y3, Y5  // f1 <= sqrt(2)/2 (LE_OS)
	VANDPD  polar<>+160(SB), Y5, Y6      // 0 or 1
	VSUBPD  Y6, Y4, Y4                   // k -= 1
	VADDPD  polar<>+160(SB), Y6, Y6      // 1 or 2
	VMULPD  Y6, Y3, Y3                   // f1 *= 2
	VSUBPD  polar<>+160(SB), Y3, Y3      // f = f1 - 1
	VADDPD  polar<>+192(SB), Y3, Y6
	VDIVPD  Y6, Y3, Y6                   // s' = f / (2 + f)
	VMULPD  Y6, Y6, Y7                   // s2
	VMULPD  Y7, Y7, Y8                   // s4
	VMULPD  polar<>+224(SB), Y8, Y9
	VADDPD  polar<>+256(SB), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  polar<>+288(SB), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  polar<>+320(SB), Y9, Y9
	VMULPD  Y9, Y7, Y7                   // t1 = s2*(L1+s4*(L3+s4*(L5+s4*L7)))
	VMULPD  polar<>+352(SB), Y8, Y9
	VADDPD  polar<>+384(SB), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  polar<>+416(SB), Y9, Y9
	VMULPD  Y9, Y8, Y8                   // t2 = s4*(L2+s4*(L4+s4*L6))
	VADDPD  Y8, Y7, Y7                   // R = t1 + t2
	VMULPD  polar<>+32(SB), Y3, Y9
	VMULPD  Y3, Y9, Y9                   // hfsq = 0.5*f*f
	VADDPD  Y9, Y7, Y7                   // hfsq + R
	VMULPD  Y7, Y6, Y6                   // s'*(hfsq+R)
	VMULPD  polar<>+448(SB), Y4, Y8      // k*Ln2Lo
	VADDPD  Y8, Y6, Y6
	VSUBPD  Y6, Y9, Y9                   // hfsq - (s'*(hfsq+R) + k*Ln2Lo)
	VSUBPD  Y3, Y9, Y9                   // ... - f
	VMULPD  polar<>+480(SB), Y4, Y4      // k*Ln2Hi
	VSUBPD  Y9, Y4, Y4                   // log(s)
	VMULPD  polar<>+512(SB), Y4, Y4      // -2*log(s)
	VDIVPD  Y2, Y4, Y4                   // / s
	VSQRTPD Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     polar_quad
	VZEROUPPER
	RET

// Block kernels (block.go): eight inputs transposed, xt[c*8+r], so that
// coordinate c of all eight is the 32 bytes at xt + c*32. A slab entry's
// byte offset is formed as SHLL $5 on its 32-bit value, which drops the
// negate flag (the wrapper bounds coordinates below 2^26). Lane r of every
// kernel performs the row kernel's operations on input r in its order.

// func transpose8AVX2(xt, rows *float32, dim, tiles int)
// xt[c*8+r] = rows[r*dim+c] for r < 8 and c < tiles*8: one 8×8 tile per
// pass, as unpack, shuffle and 128-bit permute.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-32
	MOVQ xt+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ dim+16(FP), BX
	MOVQ tiles+24(FP), CX
	SHLQ $2, BX          // row stride in bytes
	LEAQ (BX)(BX*2), DX  // three rows

transpose_tile:
	LEAQ       (SI)(BX*4), R8
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(BX*1), Y1
	VMOVUPS    (SI)(BX*2), Y2
	VMOVUPS    (SI)(DX*1), Y3
	VMOVUPS    (R8), Y4
	VMOVUPS    (R8)(BX*1), Y5
	VMOVUPS    (R8)(BX*2), Y6
	VMOVUPS    (R8)(DX*1), Y7
	VUNPCKLPS  Y1, Y0, Y8         // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS  Y1, Y0, Y9         // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0 // a0 b0 c0 d0 | a4 b4 c4 d4
	VSHUFPS    $0xee, Y10, Y8, Y1 // a1 b1 c1 d1 | a5 b5 c5 d5
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xee, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4 // e0 f0 g0 h0 | e4 f4 g4 h4
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8  // column 0
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12 // column 4
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, 32(DI)
	VMOVUPS    Y10, 64(DI)
	VMOVUPS    Y11, 96(DI)
	VMOVUPS    Y12, 128(DI)
	VMOVUPS    Y13, 160(DI)
	VMOVUPS    Y14, 192(DI)
	VMOVUPS    Y15, 224(DI)
	ADDQ       $32, SI
	ADDQ       $256, DI
	DECQ       CX
	JNZ        transpose_tile
	VZEROUPPER
	RET

// mixAddrsAVX2's VPERMD index: the low dword of each qword, twice.
DATA mixperm<>+0(SB)/4, $0
DATA mixperm<>+4(SB)/4, $2
DATA mixperm<>+8(SB)/4, $4
DATA mixperm<>+12(SB)/4, $6
DATA mixperm<>+16(SB)/4, $0
DATA mixperm<>+20(SB)/4, $2
DATA mixperm<>+24(SB)/4, $4
DATA mixperm<>+28(SB)/4, $6
GLOBL mixperm<>(SB), RODATA|NOPTR, $32

// SUMS_LANE adds function lane k's next coordinate (entry at off(R10)) of
// all eight inputs into acc: load, flip by the entry's negate flag, add.
#define SUMS_LANE(off, acc, v, s) \
	MOVL         off(R10), R11 \
	SHLL         $5, R11 \
	VPBROADCASTD off(R10), s \
	VPAND        Y15, s, s \
	VXORPS       (SI)(R11*1), s, v \
	VADDPS       v, acc, acc

// func signedSumsBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *float32)
// SignedSumsBlock over groups*8 functions, four at a time (Y0–Y3, one
// function's eight inputs each): per input lane, signedSumsGo's adds in its
// order — flip the sign bit, add, never FMA. Function f's lanes go to
// dst + f*32.
TEXT ·signedSumsBlockAVX2(SB), NOSPLIT, $0-40
	MOVQ         xt+0(FP), SI
	MOVQ         ent+8(FP), DX
	MOVQ         steps+16(FP), BX
	MOVQ         groups+24(FP), CX
	MOVQ         dst+32(FP), DI
	MOVL         $0x80000000, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15 // negate flag

sumsblk_group:
	MOVQ DX, R9
	MOVQ $2, R12

sumsblk_quad:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R9, R10
	MOVQ   BX, R8

sumsblk_step:
	SUMS_LANE(0, Y0, Y4, Y5)
	SUMS_LANE(4, Y1, Y6, Y7)
	SUMS_LANE(8, Y2, Y8, Y9)
	SUMS_LANE(12, Y3, Y10, Y11)
	ADDQ $32, R10
	DECQ R8
	JNZ  sumsblk_step
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $16, R9
	DECQ    R12
	JNZ     sumsblk_quad
	MOVQ    BX, AX
	SHLQ    $5, AX
	ADDQ    AX, DX        // the next group's entries
	DECQ    CX
	JNZ     sumsblk_group
	VZEROUPPER
	RET

// ARGMAX_LANE folds function lane k's next coordinate (entry at off(R10))
// of all eight inputs into its best value and position. An empty lane's
// best is NaN, so one unordered compare is argMaxAVX2's "empty or strictly
// greater" test: NLE_UQ(v, best) holds when v > best or the lane is empty,
// and a value that is ±0 or NaN (NEQ_OQ with zero false) is never taken.
// Ties keep the lower position. Y8 is the position, Y9 zero.
#define ARGMAX_LANE(off, best, pos) \
	MOVL      off(R10), R11 \
	SHLL      $5, R11 \
	VMOVUPS   (SI)(R11*1), Y11 \
	VCMPPS    $0x0c, Y9, Y11, Y12 \
	VCMPPS    $0x16, best, Y11, Y13 \
	VANDPS    Y12, Y13, Y13 \
	VBLENDVPS Y13, Y11, best, best \
	VBLENDVPS Y13, Y8, pos, pos

// ARGMAX_STORE stores a function's positions, NoArgMax where its lanes
// stayed empty (never taken), and ORs their sign bits — set only by
// NoArgMax — into R13.
#define ARGMAX_STORE(pos, off) \
	VMOVDQU   pos, off(DI) \
	VMOVMSKPS pos, AX \
	ORL       AX, R13

// func argMaxBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *uint32) (empty bool)
// NonZeroArgMaxBlock over groups*8 functions, four at a time (best values
// Y0–Y3, NaN while empty; positions Y4–Y7, NoArgMax until a value is
// taken): per lane argMaxAVX2's rule — take a value neither ±0 nor NaN
// when the lane is empty or the value is strictly greater than its best.
// Function f's lanes go to dst + f*32. empty reports whether any lane
// stayed empty.
TEXT ·argMaxBlockAVX2(SB), NOSPLIT, $0-41
	MOVQ         xt+0(FP), SI
	MOVQ         ent+8(FP), DX
	MOVQ         steps+16(FP), BX
	MOVQ         groups+24(FP), CX
	MOVQ         dst+32(FP), DI
	XORL         R13, R13
	VXORPS       Y9, Y9, Y9   // zero
	MOVL         $1, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10     // position step

argblk_group:
	MOVQ DX, R9
	MOVQ $2, R12

argblk_quad:
	VPCMPEQD Y0, Y0, Y0 // NaN: empty
	VPCMPEQD Y1, Y1, Y1
	VPCMPEQD Y2, Y2, Y2
	VPCMPEQD Y3, Y3, Y3
	VPCMPEQD Y4, Y4, Y4 // NoArgMax
	VPCMPEQD Y5, Y5, Y5
	VPCMPEQD Y6, Y6, Y6
	VPCMPEQD Y7, Y7, Y7
	VPXOR    Y8, Y8, Y8
	MOVQ     R9, R10
	MOVQ     BX, R8

argblk_step:
	ARGMAX_LANE(0, Y0, Y4)
	ARGMAX_LANE(4, Y1, Y5)
	ARGMAX_LANE(8, Y2, Y6)
	ARGMAX_LANE(12, Y3, Y7)
	VPADDD Y10, Y8, Y8
	ADDQ   $32, R10
	DECQ   R8
	JNZ    argblk_step
	ARGMAX_STORE(Y4, 0)
	ARGMAX_STORE(Y5, 32)
	ARGMAX_STORE(Y6, 64)
	ARGMAX_STORE(Y7, 96)
	ADDQ   $128, DI
	ADDQ   $16, R9
	DECQ   R12
	JNZ    argblk_quad
	MOVQ   BX, AX
	SHLQ   $5, AX
	ADDQ   AX, DX
	DECQ   CX
	JNZ    argblk_group
	VZEROUPPER
	TESTL  R13, R13
	SETNE  empty+40(FP)
	RET

// func packAddrsAVX2(dst *uint32, stride int, codes *uint32, k, tables, bits int)
// PackAddresses for eight lanes: per table, a = a<<bits | code over its k
// codes, stored at dst + ti*stride*4.
TEXT ·packAddrsAVX2(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  stride+8(FP), DX
	MOVQ  codes+16(FP), SI
	MOVQ  k+24(FP), BX
	MOVQ  tables+32(FP), CX
	MOVQ  bits+40(FP), AX
	VMOVQ AX, X15
	SHLQ  $2, DX

pack_table:
	VPXOR Y0, Y0, Y0
	MOVQ  BX, R8

pack_code:
	VPSLLD X15, Y0, Y0
	VPOR   (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   R8
	JNZ    pack_code
	VMOVDQU Y0, (DI)
	ADDQ    DX, DI
	DECQ    CX
	JNZ     pack_table
	VZEROUPPER
	RET

// MIX_CODE folds one code of four lanes (zero-extended in c) into their
// 64-bit states h: h ^= c + golden + h<<6 + h>>2 (additions mod 2^64, in
// any order the same sum).
#define MIX_CODE(h, c, t, u) \
	VPSLLQ $6, h, t \
	VPSRLQ $2, h, u \
	VPADDQ u, t, t \
	VPADDQ c, t, t \
	VPADDQ Y8, t, t \
	VPXOR  t, h, h

// MIX_FINAL is the finalizer on four lanes: h ^= h>>33; h *= M; h ^= h>>33,
// the 64-bit multiply as lo·Mlo + ((hi·Mlo + lo·Mhi) << 32).
#define MIX_FINAL(h, t, u, v) \
	VPSRLQ   $33, h, t \
	VPXOR    t, h, h \
	VPMULUDQ Y9, h, t \
	VPSRLQ   $32, h, u \
	VPMULUDQ Y9, u, u \
	VPMULUDQ Y10, h, v \
	VPADDQ   v, u, u \
	VPSLLQ   $32, u, u \
	VPADDQ   u, t, h \
	VPSRLQ   $33, h, t \
	VPXOR    t, h, h

// func mixAddrsAVX2(dst *uint32, stride int, codes *uint32, k, t0, tables int, seed uint64, mask uint32)
// MixAddresses for eight lanes, tables t0..t0+tables-1: lanes 0–3 in Y0
// and 4–7 in Y1 as 64-bit states seeded with seed ^ ti*golden; the low
// dwords are packed back to eight lanes, masked and stored at
// dst + (ti-t0)*stride*4.
TEXT ·mixAddrsAVX2(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         stride+8(FP), DX
	MOVQ         codes+16(FP), SI
	MOVQ         k+24(FP), BX
	MOVQ         t0+32(FP), R12
	MOVQ         tables+40(FP), CX
	MOVQ         seed+48(FP), R13
	SHLQ         $2, DX
	MOVQ         $0x9e3779b97f4a7c15, R14
	VMOVQ        R14, X8
	VPBROADCASTQ X8, Y8   // golden
	MOVL         $0xed558ccd, AX
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9   // M's low half
	MOVL         $0xff51afd7, AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10 // M's high half
	VMOVDQU      mixperm<>(SB), Y11
	MOVL         mask+56(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12

mix_table:
	MOVQ         R12, AX
	IMULQ        R14, AX
	XORQ         R13, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VMOVDQA      Y0, Y1
	MOVQ         BX, R8

mix_code:
	VPMOVZXDQ (SI), Y2
	VPMOVZXDQ 16(SI), Y3
	MIX_CODE(Y0, Y2, Y4, Y5)
	MIX_CODE(Y1, Y3, Y6, Y7)
	ADDQ      $32, SI
	DECQ      R8
	JNZ       mix_code
	MIX_FINAL(Y0, Y4, Y5, Y6)
	MIX_FINAL(Y1, Y2, Y3, Y7)
	VPERMD      Y0, Y11, Y0
	VPERMD      Y1, Y11, Y1
	VINSERTI128 $1, X1, Y0, Y0
	VPAND       Y12, Y0, Y0
	VMOVDQU     Y0, (DI)
	ADDQ        DX, DI
	INCQ        R12
	DECQ        CX
	JNZ         mix_table
	VZEROUPPER
	RET
