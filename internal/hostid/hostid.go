// Package hostid identifies the host hardware a measurement was taken on.
// perfbench stamps every result with the CPU model and Key, so two runs can
// be compared knowing whether the hardware moved under the numbers.
package hostid

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// CPUModel reads the host CPU model name where the platform exposes one
// (/proc/cpuinfo on Linux); empty elsewhere.
func CPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// Key returns a stable, filename-safe identity for (this host, this process
// shape): a short hash of the CPU model, GOMAXPROCS, GOARCH and the Go
// release. Timings taken under one key are only comparable under the same
// key — a different core count changes parallel-dispatch overhead, a
// different CPU changes every per-unit cost.
func Key() string {
	id := fmt.Sprintf("%s|gomaxprocs=%d|%s|%s",
		CPUModel(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version())
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:8])
}
