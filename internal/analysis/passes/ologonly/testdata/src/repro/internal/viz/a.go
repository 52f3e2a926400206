// Package viz is outside the long-running set: printing is legal here.
package viz

import (
	"fmt"
	"log"
	"log/slog"
)

func render() {
	fmt.Println("plot written")
	log.Printf("done")
	slog.Info("rendered", "frames", 1)
}
