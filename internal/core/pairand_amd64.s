#include "textflag.h"

// func pairAndAVX512(bits []uint64, words, i int, arow []Index) (sum int64, ok bool)
//
// Z0 holds bits(i), Z2 the eight lane sums. K1 keeps the first words
// lanes, so every load reads exactly one row and nothing past it. DX is
// the first word of the last row: a row offset k·words above it would
// read outside bits, and returns ok = false before any load of it.
TEXT ·pairAndAVX512(SB), NOSPLIT, $0-73
	MOVQ  bits_base+0(FP), SI
	MOVQ  bits_len+8(FP), DX
	MOVQ  words+24(FP), CX
	SUBQ  CX, DX
	JCS   bad
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	MOVQ  i+32(FP), AX
	IMULQ CX, AX
	CMPQ  AX, DX
	JHI   bad
	VMOVDQU64.Z (SI)(AX*8), K1, Z0
	VPXORQ Z2, Z2, Z2
	MOVQ  arow_base+40(FP), DI
	MOVQ  arow_len+48(FP), BX
	TESTQ BX, BX
	JZ    done

loop:
	MOVL  (DI), AX // zero-extended: a negative k compares above DX
	IMULQ CX, AX
	CMPQ  AX, DX
	JHI   bad
	VPANDQ.Z (SI)(AX*8), Z0, K1, Z1
	VPOPCNTQ Z1, Z1
	VPADDQ   Z1, Z2, Z2
	ADDQ  $4, DI
	DECQ  BX
	JNZ   loop

done:
	VEXTRACTI64X4 $1, Z2, Y3
	VPADDQ        Y3, Y2, Y2
	VEXTRACTI128  $1, Y2, X3
	VPADDQ        X3, X2, X2
	VPSHUFD       $0x4e, X2, X3
	VPADDQ        X3, X2, X2
	VMOVQ         X2, AX
	VZEROUPPER
	MOVQ AX, sum+64(FP)
	MOVB $1, ok+72(FP)
	RET

bad:
	VZEROUPPER
	MOVQ $0, sum+64(FP)
	MOVB $0, ok+72(FP)
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
