package viz

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/grid"
)

func gradientField() *grid.Field {
	f := grid.NewField(16, 8, 1)
	u := f.AddVar("u", nil)
	for j := 0; j < 8; j++ {
		for i := 0; i < 16; i++ {
			u[f.Idx(i, j, 0)] = float64(i)
		}
	}
	return f
}

func TestFieldToPGMHeaderAndRange(t *testing.T) {
	f := gradientField()
	img := FieldToPGM(f, "u", 0)
	if !bytes.HasPrefix(img, []byte("P5\n16 8\n255\n")) {
		t.Fatalf("bad header: %q", img[:12])
	}
	body := img[len("P5\n16 8\n255\n"):]
	if len(body) != 16*8 {
		t.Fatalf("body size %d", len(body))
	}
	// Left column darkest, right column brightest.
	if body[0] != 0 || body[15] != 255 {
		t.Fatalf("gradient mapping wrong: %d..%d", body[0], body[15])
	}
}

func TestSamplesToPGMMarksPoints(t *testing.T) {
	f := gradientField()
	idx := []int{f.Idx(3, 7, 0)}
	img := SamplesToPGM(f, "u", 0, idx)
	body := img[len("P5\n16 8\n255\n"):]
	// (3,7) is the top row (flipped), column 3.
	if body[3] != 255 {
		t.Fatalf("sample not marked: %d", body[3])
	}
	// Background is dimmed below 128.
	if body[15] > 128 {
		t.Fatalf("background not dimmed: %d", body[15])
	}
}

func TestFieldToASCII(t *testing.T) {
	f := gradientField()
	s := FieldToASCII(f, "u", 0, 80)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 0 || len(lines[0]) != 16 {
		t.Fatalf("ascii shape: %d lines, first %q", len(lines), lines[0])
	}
	if lines[0][0] != ' ' || lines[0][15] != '@' {
		t.Fatalf("shades wrong: %q", lines[0])
	}
}
