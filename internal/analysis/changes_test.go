package analysis_test

import (
	"os"
	"strings"
	"testing"
)

// TestChangesHasNoRepeatedLines: CHANGES.md says each thing once. A line
// that appears twice is a pasted-over block or an entry written twice, and
// the two copies drift apart as one of them is edited.
func TestChangesHasNoRepeatedLines(t *testing.T) {
	b, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]int{}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if at, ok := first[line]; ok {
			t.Errorf("CHANGES.md:%d repeats line %d: %.80s…", i+1, at, line)
			continue
		}
		first[line] = i + 1
	}
}
