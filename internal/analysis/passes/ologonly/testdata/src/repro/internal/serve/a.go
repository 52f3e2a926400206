// Golden input for ologonly, placed at a long-running import path
// (testdata dir layout below src/ is the package's import path).
package serve

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"os"
)

func operate() {
	fmt.Println("status")          // want `fmt.Println writes to process stdout`
	fmt.Printf("x %d\n", 1)        // want `fmt.Printf writes to process stdout`
	fmt.Print("y")                 // want `fmt.Print writes to process stdout`
	log.Printf("legacy %d", 1)     // want `standard log package bypasses leveling`
	log.Println("legacy")          // want `standard log package bypasses leveling`
	println("builtin")             // want `builtin println writes to stderr unstructured`
	print("builtin")               // want `builtin print writes to stderr unstructured`
	fmt.Fprintf(os.Stderr, "ok\n") // explicit writer: fine
	//sicklevet:ignore ologonly demonstrating the line escape hatch
	fmt.Println("suppressed")
}

// slog's package-level output reaches the process default logger, not the
// one -log-level and -log-json built; the tier's logger and its With
// children are the way in.
func slogDefaults(lg *slog.Logger) {
	slog.Info("default")                                            // want `slog.Info writes through the process default logger`
	slog.Warn("default")                                            // want `slog.Warn writes through the process default logger`
	slog.ErrorContext(context.Background(), "default")              // want `slog.ErrorContext writes through the process default logger`
	slog.LogAttrs(context.Background(), slog.LevelDebug, "default") // want `slog.LogAttrs writes through the process default logger`
	slog.Default().Info("default")                                  // want `slog.Default writes through the process default logger`
	lg.Warn("structured", "k", 1)
	lg.With("k", 1).Info("child")
}
