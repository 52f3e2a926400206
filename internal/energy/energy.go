// Package energy replaces the paper's Cray Power Management counters with a
// deterministic, counter-based energy model. Consumers charge the meter
// with the floating-point operations they execute and the bytes they move;
// the meter converts both to joules using per-operation energies whose
// ratio encodes the paper's central premise (moving a double across the
// system costs ~100× computing on it — Kogge & Shalf). Because the model is
// driven by measured work rather than wall-clock, results are reproducible
// across machines while preserving the orderings and ratios the paper's
// Figs. 8-9 report.
package energy

import (
	"fmt"
	"sync/atomic"
)

// Per-operation energy constants. Absolute values are representative of a
// recent HPC node (tens of pJ per flop); what matters for the reproduction
// is the movement:compute ratio per 8-byte datum, set to 100:1.
const (
	JoulesPerFlop = 12.5e-12           // 12.5 pJ per double-precision op
	JoulesPerByte = 100 * 12.5e-12 / 8 // 100× per 8-byte datum moved
)

// Meter accumulates work counters. It is safe for concurrent use; the
// parallel samplers and the data-parallel trainer charge it from many
// goroutines.
type Meter struct {
	flops atomic.Int64
	bytes atomic.Int64
}

// NewMeter returns a zeroed meter.
func NewMeter() *Meter { return &Meter{} }

// AddFlops charges n floating-point operations.
func (m *Meter) AddFlops(n int64) {
	if n > 0 {
		m.flops.Add(n)
	}
}

// AddBytes charges n bytes of data movement (reads + writes).
func (m *Meter) AddBytes(n int64) {
	if n > 0 {
		m.bytes.Add(n)
	}
}

// Flops returns the accumulated op count.
func (m *Meter) Flops() int64 { return m.flops.Load() }

// Bytes returns the accumulated byte count.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// Joules converts the counters to energy.
func (m *Meter) Joules() float64 {
	return float64(m.flops.Load())*JoulesPerFlop + float64(m.bytes.Load())*JoulesPerByte
}

// Kilojoules is Joules()/1000, the unit the paper reports.
func (m *Meter) Kilojoules() float64 { return m.Joules() / 1000 }

// Add merges another meter's counters into m.
func (m *Meter) Add(o *Meter) {
	m.flops.Add(o.flops.Load())
	m.bytes.Add(o.bytes.Load())
}

// String formats the meter like the artifact's "Total Energy Consumed" log
// line.
func (m *Meter) String() string {
	return fmt.Sprintf("Total Energy Consumed: %.6g kJ (%.3g Gflop, %.3g GB moved)",
		m.Kilojoules(), float64(m.Flops())/1e9, float64(m.Bytes())/1e9)
}

// Report is a labelled energy breakdown used by the experiment harness to
// implement Eq. 3: CostToTrain ≈ O(c(m)) + O(m·p·e) — the sampling term
// plus the training term.
type Report struct {
	Label          string
	SampleJoules   float64
	TrainJoules    float64
	EvalLoss       float64
	WallSeconds    float64
	SampleFraction float64
}

// TotalJoules returns sampling + training energy.
func (r Report) TotalJoules() float64 { return r.SampleJoules + r.TrainJoules }

// TotalKJ returns the total in kilojoules.
func (r Report) TotalKJ() float64 { return r.TotalJoules() / 1000 }
