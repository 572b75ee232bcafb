package core

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestPairAndAVX512PageEnd: bits that end where a readable page meets an
// unreadable one give the AVX-512 loop's sum for their last row at 1 to
// 8 words a row, without a fault, so its masked loads read no word past
// bits.
func TestPairAndAVX512PageEnd(t *testing.T) {
	if !pairAVX512 {
		t.Skip("the CPU lacks AVX-512F or AVX512_VPOPCNTDQ")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skip("mprotect:", err)
	}
	const n = 3
	for words := 1; words <= maxPairWords; words++ {
		bits := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*n*words])), n*words)
		for j := range bits {
			bits[j] = ^uint64(0)
		}
		if sum, ok := pairAndAVX512(bits, words, n-1, []Index{n - 1, 0}); !ok || sum != int64(128*words) {
			t.Errorf("%d words: %d, %v; want %d", words, sum, ok, 128*words)
		}
	}
}
