package tier

import (
	"flag"
	"strings"
	"time"

	"repro/internal/config"
	olog "repro/internal/obs/log"
	"repro/internal/obs/slo"
)

// Flags are the command-line options sickle-serve and sickle-shard share:
// -log-level, -log-json, -slo and -debug-addr.
type Flags struct {
	// Logger builds the logger the flags describe; call it after Parse.
	Logger func() *olog.Logger

	slo, debugAddr *string
}

// BindFlags registers the shared options on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		Logger:    olog.Flags(fs),
		slo:       fs.String("slo", "", "comma-separated SLO specs (e.g. latency:/v2/infer:250ms:99.9,availability:/v2/infer:99.9)"),
		debugAddr: fs.String("debug-addr", "", "pprof + debug sidecar listen address (\"\" = off)"),
	}
}

// Recorder is the flight-recorder part of a tier's configuration, as the
// case file's obs: section and the command line resolve it. The fields map
// one to one onto the flat recorder fields of serve.Config and
// shard.Config; DebugAddr goes to Tier.ServeDebug.
type Recorder struct {
	HistoryInterval time.Duration
	HistoryCapacity int
	EventCapacity   int
	SLOs            []slo.Objective
	DebugAddr       string
}

// Recorder resolves the settings: the obs: section sizes the recorder and
// declares the objectives, -slo replaces the declared objectives, and
// -debug-addr replaces the tier section's debug_addr (caseDebugAddr).
func (f *Flags) Recorder(c config.ObsCase, caseDebugAddr string) (Recorder, error) {
	specs := c.SLOs
	if *f.slo != "" {
		specs = strings.Split(*f.slo, ",")
	}
	objectives, err := slo.ParseObjectives(specs)
	if err != nil {
		return Recorder{}, err
	}
	r := Recorder{
		HistoryInterval: time.Duration(c.HistoryIntervalMS) * time.Millisecond,
		HistoryCapacity: c.HistoryCapacity,
		EventCapacity:   c.EventCapacity,
		SLOs:            objectives,
		DebugAddr:       caseDebugAddr,
	}
	if *f.debugAddr != "" {
		r.DebugAddr = *f.debugAddr
	}
	return r, nil
}
