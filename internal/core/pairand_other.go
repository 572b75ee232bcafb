//go:build !amd64

package core

// pairAndAVX512 is never called off amd64: hasAVX512PopCount is false.
func pairAndAVX512([]uint64, int, int, []Index) (int64, bool) { return 0, false }

func hasAVX512PopCount() bool { return false }
