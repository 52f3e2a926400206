package top

import (
	"os"
	"testing"

	"repro/internal/tensor/pooltest"
)

// The e2e tests boot fleets, so the replicas' and routers' goroutines count
// too.
func TestMain(m *testing.M) {
	os.Exit(pooltest.NoLeaks(m, "repro/internal/obs/top.", "repro/internal/serve.", "repro/internal/shard."))
}
