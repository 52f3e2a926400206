package tier

import (
	"flag"
	"log/slog"
	"strings"

	olog "repro/internal/obs/log"
	"repro/internal/obs/slo"
)

// Flags are the command-line options sickle-serve and sickle-shard share:
// -log-level, -log-json, -slo and -debug-addr. A malformed level or SLO
// spec fails the parse.
type Flags struct {
	// Logger builds the logger the flags describe; call it after Parse.
	Logger func() *slog.Logger
	// SLOs are the -slo objectives; DebugAddr goes to Tier.ServeDebug.
	SLOs      []slo.Objective
	DebugAddr string
}

// BindFlags registers the shared options on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Logger: olog.Flags(fs)}
	fs.Func("slo", "comma-separated SLO specs (e.g. latency:/v2/infer:250ms:99.9,availability:/v2/infer:99.9)",
		func(s string) (err error) {
			f.SLOs, err = slo.ParseObjectives(strings.Split(s, ","))
			return err
		})
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "pprof + debug sidecar listen address (\"\" = off)")
	return f
}
