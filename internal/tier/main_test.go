package tier

import (
	"os"
	"testing"

	"repro/internal/tensor/pooltest"
)

// The contract tests boot a replica and a router, so their goroutines count
// too.
func TestMain(m *testing.M) {
	os.Exit(pooltest.NoLeaks(m, "repro/internal/tier.", "repro/internal/serve.", "repro/internal/shard."))
}
