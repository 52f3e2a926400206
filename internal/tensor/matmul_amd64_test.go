package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2Detection holds the assembly's CPUID/XGETBV reading to the flags
// Linux reports for the first CPU.
func TestAVX2Detection(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); cpuAVX2() != want {
			t.Fatalf("cpuAVX2() = %v, /proc/cpuinfo lists avx2: %v", cpuAVX2(), want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
