package energy

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter()
	m.AddFlops(1000)
	m.AddBytes(800)
	if m.Flops() != 1000 || m.Bytes() != 800 {
		t.Fatalf("counters = %d flops, %d bytes", m.Flops(), m.Bytes())
	}
	want := 1000*JoulesPerFlop + 800*JoulesPerByte
	if math.Abs(m.Joules()-want) > 1e-20 {
		t.Fatalf("Joules = %v, want %v", m.Joules(), want)
	}
	if math.Abs(m.Kilojoules()-want/1000) > 1e-20 {
		t.Fatalf("Kilojoules = %v", m.Kilojoules())
	}
}

func TestNegativeChargesIgnored(t *testing.T) {
	m := NewMeter()
	m.AddFlops(-5)
	m.AddBytes(-5)
	if m.Flops() != 0 || m.Bytes() != 0 {
		t.Fatal("negative charges must be ignored")
	}
}

func TestMovementComputeRatio(t *testing.T) {
	// Moving one 8-byte datum must cost 100× computing one op on it —
	// the premise from Kogge & Shalf the paper builds on.
	ratio := (8 * JoulesPerByte) / JoulesPerFlop
	if math.Abs(ratio-100) > 1e-9 {
		t.Fatalf("movement:compute ratio = %v, want 100", ratio)
	}
}

func TestConcurrentCharging(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddFlops(1)
				m.AddBytes(2)
			}
		}()
	}
	wg.Wait()
	if m.Flops() != 16000 || m.Bytes() != 32000 {
		t.Fatalf("concurrent totals: %d flops, %d bytes", m.Flops(), m.Bytes())
	}
}

func TestAddAndReset(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.AddFlops(10)
	b.AddFlops(5)
	b.AddBytes(7)
	a.Add(b)
	if a.Flops() != 15 || a.Bytes() != 7 {
		t.Fatalf("Add: %d/%d", a.Flops(), a.Bytes())
	}
	if b.Flops() != 5 || b.Bytes() != 7 {
		t.Fatalf("Add changed its argument: %d/%d", b.Flops(), b.Bytes())
	}
}

func TestStringFormat(t *testing.T) {
	m := NewMeter()
	m.AddFlops(1e9)
	s := m.String()
	if !strings.Contains(s, "Total Energy Consumed") {
		t.Fatalf("String = %q", s)
	}
}

func TestReportTotals(t *testing.T) {
	r := Report{Label: "x", SampleJoules: 1500, TrainJoules: 500}
	if r.TotalJoules() != 2000 {
		t.Fatalf("TotalJoules = %v", r.TotalJoules())
	}
	if r.TotalKJ() != 2 {
		t.Fatalf("TotalKJ = %v", r.TotalKJ())
	}
}
