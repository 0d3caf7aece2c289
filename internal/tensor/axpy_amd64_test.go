//go:build amd64

package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// forEachBody runs fn once per body of the primitive this host can
// execute, SSE2 always and AVX where HasAVX holds, by switching useAVX; the
// selection package init made is put back afterwards.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(selected bool) { useAVX = selected }(useAVX)
	useAVX = false
	t.Run("sse2", fn)
	if HasAVX() {
		useAVX = true
		t.Run("avx", fn)
	}
}

// TestAVXSelectedWhereSupported: the body package init picked agrees with
// the Linux kernel's own account, which lists "avx" among the CPU flags only
// where the CPU has it and the kernel also saves the YMM registers. A
// detection bug in HasAVX fails here instead of quietly running the
// four-lane body.
func TestAVXSelectedWhereSupported(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if listed := slices.Contains(strings.Fields(flags), "avx"); listed != useAVX {
			t.Fatalf("/proc/cpuinfo lists avx: %v, but useAVX = %v", listed, useAVX)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
