package stream

import (
	"os"
	"testing"

	"repro/internal/tensor/pooltest"
)

func TestMain(m *testing.M) { os.Exit(pooltest.NoLeaks(m, "repro/internal/stream.")) }
