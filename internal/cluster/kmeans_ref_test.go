package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/pooltest"
)

// kmeansRef is the [][]float64 k-means the flat core replaced, kept as its
// specification: same k-means++ seeding, mini-batch and Lloyd updates, the
// same arithmetic order and the same lowest-index tie rule. The core must
// reproduce its centroids, labels and inertia bit for bit.
func kmeansRef(pts [][]float64, cfg Config) *Result {
	cfg.defaults(len(pts))
	rng := rand.New(rand.NewSource(cfg.Seed))
	cents := seedPlusPlusRef(pts, cfg.K, rng)
	if cfg.BatchSize > 0 && cfg.BatchSize < len(pts) {
		miniBatchRef(pts, cents, cfg, rng)
	} else {
		lloydRef(pts, cents, cfg)
	}
	labels := make([]int, len(pts))
	inertia := 0.0
	for i, p := range pts {
		j, dd := nearestRef(p, cents)
		labels[i] = j
		inertia += dd
	}
	return &Result{Centroids: cents, Labels: labels, Inertia: inertia}
}

func seedPlusPlusRef(pts [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(pts)
	cents := make([][]float64, 0, k)
	first := pts[rng.Intn(n)]
	cents = append(cents, append([]float64(nil), first...))
	d2 := make([]float64, n)
	for i, p := range pts {
		d2[i] = sqDist(p, cents[0])
	}
	for len(cents) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var chosen []float64
		if total <= 0 {
			chosen = pts[rng.Intn(n)]
		} else {
			r := rng.Float64() * total
			idx := n - 1
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
			chosen = pts[idx]
		}
		c := append([]float64(nil), chosen...)
		cents = append(cents, c)
		for i, p := range pts {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cents
}

func nearestRef(p []float64, cents [][]float64) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for j, c := range cents {
		if d := sqDist(p, c); d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

func lloydRef(pts [][]float64, cents [][]float64, cfg Config) {
	k, d := len(cents), len(pts[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for j := range sums {
		sums[j] = make([]float64, d)
	}
	for it := 0; it < cfg.MaxIters; it++ {
		for j := range sums {
			counts[j] = 0
			for x := range sums[j] {
				sums[j][x] = 0
			}
		}
		for _, p := range pts {
			j, _ := nearestRef(p, cents)
			counts[j]++
			for x, v := range p {
				sums[j][x] += v
			}
		}
		shift := 0.0
		for j := range cents {
			if counts[j] == 0 {
				continue
			}
			inv := 1 / float64(counts[j])
			for x := range cents[j] {
				nv := sums[j][x] * inv
				dd := nv - cents[j][x]
				shift += dd * dd
				cents[j][x] = nv
			}
		}
		if shift < tol*tol {
			return
		}
	}
}

func miniBatchRef(pts [][]float64, cents [][]float64, cfg Config, rng *rand.Rand) {
	n := len(pts)
	counts := make([]int, len(cents))
	for it := 0; it < cfg.MaxIters; it++ {
		shift := 0.0
		for b := 0; b < cfg.BatchSize; b++ {
			p := pts[rng.Intn(n)]
			j, _ := nearestRef(p, cents)
			counts[j]++
			eta := 1 / float64(counts[j])
			for x := range cents[j] {
				dd := eta * (p[x] - cents[j][x])
				cents[j][x] += dd
				shift += dd * dd
			}
		}
		if shift < tol*tol {
			return
		}
	}
}

// matchRef reports how the clustering of the n×d points xs under cfg
// differs from kmeansRef's, or "" when centroids, labels and inertia are
// bit-equal. For d = 1 it checks KMeans1D as well, with a fresh and a
// reused rng and with and without labels.
func matchRef(xs []float64, d int, cfg Config, reuse *rand.Rand) string {
	pts := make([][]float64, len(xs)/d)
	for i := range pts {
		pts[i] = xs[i*d : (i+1)*d]
	}
	want := kmeansRef(pts, cfg)
	got, err := KMeans(pts, cfg)
	if err != nil {
		return err.Error()
	}
	if len(got.Centroids) != len(want.Centroids) {
		return fmt.Sprintf("KMeans: %d centroids, reference %d", len(got.Centroids), len(want.Centroids))
	}
	for j := range want.Centroids {
		for x := range want.Centroids[j] {
			if math.Float64bits(got.Centroids[j][x]) != math.Float64bits(want.Centroids[j][x]) {
				return fmt.Sprintf("KMeans: centroid %d = %v, reference %v", j, got.Centroids[j], want.Centroids[j])
			}
		}
	}
	if !slices.Equal(got.Labels, want.Labels) {
		return fmt.Sprintf("KMeans: labels %v, reference %v", got.Labels, want.Labels)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Sprintf("KMeans: inertia %v, reference %v", got.Inertia, want.Inertia)
	}
	if d != 1 {
		return ""
	}
	for _, rng := range []*rand.Rand{rand.New(rand.NewSource(cfg.Seed)), reuse} {
		labels := make([]int, len(xs))
		cents, err := KMeans1D(xs, cfg, rng, labels)
		if err != nil {
			return err.Error()
		}
		bare, _ := KMeans1D(xs, cfg, rng, nil)
		for j, c := range want.Centroids {
			if math.Float64bits(cents[j]) != math.Float64bits(c[0]) || math.Float64bits(bare[j]) != math.Float64bits(c[0]) {
				return fmt.Sprintf("KMeans1D: centroids %v (without labels %v), reference %v", cents, bare, want.Centroids)
			}
		}
		if len(cents) != len(want.Centroids) || !slices.Equal(labels, want.Labels) {
			return fmt.Sprintf("KMeans1D: labels %v, reference %v", labels, want.Labels)
		}
	}
	return ""
}

// TestKMeansMatchesReference pins the flat core to kmeansRef on randomized
// inputs: d ∈ {1, 2, 4}, k from 1 to 25 (past n too), Lloyd (BatchSize 0)
// and mini-batch (256), over smooth, duplicated, constant and half-integer
// grid values — the grid puts points exactly halfway between centroids, so
// the lowest-index tie rule decides.
func TestKMeansMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(26))
	reuse := rand.New(rand.NewSource(-1)) // any state: KMeans1D re-seeds it
	cases := 0
	for trial := 0; trial < 240; trial++ {
		d := []int{1, 2, 4}[trial%3]
		kind := trial / 3 % 4
		n := 1 + gen.Intn(600)
		if trial%7 == 0 {
			n = 1 + gen.Intn(12) // fewer points than clusters
		}
		xs := make([]float64, n*d)
		for i := range xs {
			switch kind {
			case 0: // smooth
				xs[i] = gen.NormFloat64() * 3
			case 1: // heavy duplicates
				xs[i] = float64(gen.Intn(4))
			case 2: // constant
				xs[i] = 2.5
			case 3: // half-integer grid: exact midpoints between centroids
				xs[i] = float64(gen.Intn(9)) * 0.5
			}
		}
		for _, batch := range []int{0, 256} {
			cfg := Config{K: 1 + gen.Intn(25), BatchSize: batch, MaxIters: gen.Intn(40), Seed: gen.Int63()}
			if msg := matchRef(xs, d, cfg, reuse); msg != "" {
				t.Fatalf("trial %d (d %d, kind %d, n %d, %+v): %s", trial, d, kind, n, cfg, msg)
			}
			cases++
		}
	}
	if cases < 480 {
		t.Fatalf("only %d cases compared", cases)
	}
}

// TestKMeansPooledMatchesSerialRef pins the pooled assignment: at 4,096
// points, where n·k·d crosses the fan-out threshold, on a 4-worker pool,
// KMeans (Lloyd and mini-batch) and KMeans1D still equal kmeansRef bit for
// bit, and the pool ran tasks.
func TestKMeansPooledMatchesSerialRef(t *testing.T) {
	tensor.SetWorkers(4) // force a real pool even on single-core machines
	defer tensor.SetWorkers(0)
	defer pooltest.FannedOut(t, tensor.DefaultPool)()
	gen := rand.New(rand.NewSource(27))
	for _, d := range []int{1, 2, 4} {
		xs := make([]float64, 4096*d)
		for i := range xs {
			xs[i] = gen.NormFloat64() * 3
		}
		for _, batch := range []int{0, 256} {
			cfg := Config{K: 16, BatchSize: batch, MaxIters: 10, Seed: gen.Int63()}
			if msg := matchRef(xs, d, cfg, rand.New(rand.NewSource(-1))); msg != "" {
				t.Fatalf("d %d, %+v: %s", d, cfg, msg)
			}
		}
	}
}

// fuzzSpecials are the values FuzzKMeans1D decodes from the reserved int16
// codes -32767 to -32763, so the selects' non-finite paths are fuzzed: a
// NaN, ±Inf, and ±1e200, whose squares overflow to +Inf.
var fuzzSpecials = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200}

// FuzzKMeans1D: any scalar column clusters bit-identically to kmeansRef.
// data is read as little-endian int16 values in eighths, which keeps
// duplicates and exact midpoints common, except the codes fuzzSpecials
// reserves.
func FuzzKMeans1D(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 16, 0, 24, 0}, uint8(2), uint16(0), uint8(0), int64(1))
	f.Add([]byte{1, 128, 8, 0, 2, 128, 16, 0, 3, 128, 4, 128, 5, 128, 24, 0}, uint8(3), uint16(4), uint8(9), int64(2))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, uint8(4), uint16(2), uint8(5), int64(7))
	f.Add([]byte{0, 128, 255, 127, 4, 0, 12, 0, 4, 0, 12, 0, 8, 0}, uint8(24), uint16(3), uint8(60), int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, batch uint16, iters uint8, seed int64) {
		n := min(len(data)/2, 2048)
		if n == 0 {
			if _, err := KMeans1D(nil, Config{K: 1}, rand.New(rand.NewSource(seed)), nil); err == nil {
				t.Fatal("no error for empty input")
			}
			return
		}
		xs := make([]float64, n)
		for i := range xs {
			v := int16(binary.LittleEndian.Uint16(data[2*i:]))
			xs[i] = float64(v) / 8
			if s := int(v) + 32767; s >= 0 && s < len(fuzzSpecials) {
				xs[i] = fuzzSpecials[s]
			}
		}
		cfg := Config{K: 1 + int(k)%25, BatchSize: int(batch) % 512, MaxIters: int(iters) % 64, Seed: seed}
		if msg := matchRef(xs, 1, cfg, rand.New(rand.NewSource(seed^1))); msg != "" {
			t.Fatalf("n %d, %+v: %s", n, cfg, msg)
		}
	})
}

// nearestSpecials are the values where Nearest's select could part from
// the `dd < bestD` branch: ±0, NaNs of both signs, ±Inf, 1e200 (whose
// square overflows to +Inf), a subnormal and a few ordinary values.
var nearestSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8_0000_dead_beef),
	math.Inf(1), math.Inf(-1), 1e200, -1e200, 5e-324, 1, -1, 2.5,
}

// TestNearestSpecialValues holds Nearest to nearestRef on every d = 1
// point and three-centroid set drawn from nearestSpecials, then on random
// d = 3 points and sets of one to six centroids drawn from them, equal
// centroids and NaN coordinates included; an all-NaN set answers 0.
func TestNearestSpecialValues(t *testing.T) {
	check := func(p []float64, rows [][]float64) {
		t.Helper()
		flat := slices.Concat(rows...)
		if got, want := Nearest(p, flat), func() int { j, _ := nearestRef(p, rows); return j }(); got != want {
			t.Fatalf("Nearest(%v, %v) = %d, reference %d", p, rows, got, want)
		}
	}
	sp := nearestSpecials
	for _, p := range sp {
		for _, a := range sp {
			for _, b := range sp {
				for _, c := range sp {
					check([]float64{p}, [][]float64{{a}, {b}, {c}})
				}
			}
		}
	}
	gen := rand.New(rand.NewSource(50))
	pick := func() []float64 {
		return []float64{sp[gen.Intn(len(sp))], sp[gen.Intn(len(sp))], sp[gen.Intn(len(sp))]}
	}
	for trial := 0; trial < 20000; trial++ {
		rows := make([][]float64, 1+gen.Intn(6))
		for j := range rows {
			rows[j] = pick()
			if j > 0 && gen.Intn(4) == 0 {
				rows[j] = rows[gen.Intn(j)] // an equal centroid: the lower index wins
			}
		}
		check(pick(), rows)
	}
	nan := math.NaN()
	for _, p := range [][]float64{{1}, {1, 2, 3}} {
		rows := [][]float64{make([]float64, len(p)), make([]float64, len(p)), make([]float64, len(p))}
		for _, r := range rows {
			for x := range r {
				r[x] = nan
			}
		}
		if got := Nearest(p, slices.Concat(rows...)); got != 0 {
			t.Fatalf("Nearest(%v, all NaN) = %d, want 0", p, got)
		}
		check(p, rows)
	}
}

// TestSeedPlusPlusNaN pins the k-means++ distance update to the reference
// on points that make a distance NaN: a NaN point, or +Inf against +Inf.
// `dd < d2[i]` keeps a NaN d2[i] where a compare on the bits would replace
// it, and which point is drawn next depends on it. Half the trials have
// infinite points but no NaN one, so the NaN comes only from Inf − Inf and
// the total is not NaN from the start. Clustering such points must still
// equal kmeansRef bit for bit.
func TestSeedPlusPlusNaN(t *testing.T) {
	gen := rand.New(rand.NewSource(51))
	for trial := 0; trial < 400; trial++ {
		d := 1 + trial%3
		n := 2 + gen.Intn(60)
		xs := make([]float64, n*d)
		for i := range xs {
			xs[i] = gen.NormFloat64()
			switch gen.Intn(6) {
			case 0:
				xs[i] = []float64{math.NaN(), 1e200}[trial/2%2]
			case 1:
				xs[i] = math.Inf(1 - 2*gen.Intn(2))
			}
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = xs[i*d : (i+1)*d]
		}
		k, seed := 1+gen.Intn(8), gen.Int63()
		got := seedPlusPlus(xs, d, min(k, n), rand.New(rand.NewSource(seed)))
		want := slices.Concat(seedPlusPlusRef(pts, min(k, n), rand.New(rand.NewSource(seed)))...)
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("trial %d: seedPlusPlus = %v, reference %v", trial, got, want)
		}
		cfg := Config{K: k, BatchSize: []int{0, 8}[trial%2], MaxIters: 5, Seed: seed}
		if msg := matchRef(xs, d, cfg, rand.New(rand.NewSource(-1))); msg != "" {
			t.Fatalf("trial %d (d %d, n %d, %+v): %s", trial, d, n, cfg, msg)
		}
	}
}
