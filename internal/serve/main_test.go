package serve

import (
	"os"
	"testing"

	"repro/internal/tensor/pooltest"
)

func TestMain(m *testing.M) { os.Exit(pooltest.NoLeaks(m, "repro/internal/serve.")) }
