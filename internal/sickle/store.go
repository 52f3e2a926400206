package sickle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"repro/internal/grid"
	"repro/internal/sampling"
)

// The binary subsample format implements the paper's storage-reduction
// feature: instead of archiving full snapshots, SICKLE persists only the
// feature-rich subsampled points. Layout (little-endian):
//
//	magic "SKL1" | nCubes u32
//	per cube: snapshot u32, cube {i0,j0,k0,sx,sy,sz,id} u32×7,
//	          nPoints u32, nFeat u32, nTgt u32,
//	          localIdx u32×n, features f64×n×nFeat, targets f64×n×nTgt

var storeMagic = [4]byte{'S', 'K', 'L', '1'}

const (
	fileHeaderLen   = 4 + 4  // magic, nCubes
	recordHeaderLen = 11 * 4 // snapshot, the seven cube fields, nPoints, nFeat, nTgt
)

// SaveCubeSamples writes cube samples to path. The file handle's Close
// error is propagated: on full disks the kernel may only report the lost
// write at close time, and swallowing it would leave a truncated .skl file
// that looks successfully written.
func SaveCubeSamples(path string, cubes []sampling.CubeSample) error {
	a, err := OpenShardAppender(path)
	if err != nil {
		return err
	}
	if err := a.Append(cubes...); err != nil {
		_ = a.Close() // the append error dominates
		return err
	}
	return a.Close()
}

// ShardAppender incrementally writes cube samples to a .skl shard. Unlike
// SaveCubeSamples it does not need the full sample set up front: streaming
// producers append cubes as snapshots are consumed, and Close patches the
// cube count into the header, yielding a file LoadCubeSamples reads
// unchanged. Not safe for concurrent use; give each writer its own shard.
type ShardAppender struct {
	path   string
	f      *os.File
	w      *bufio.Writer
	n      int
	buf    []byte // one encoded record, reused across Appends
	closed bool
	// failed records a mid-record write failure. A partial record may
	// already have auto-flushed to disk, and a file whose header counts
	// only the complete records would load cleanly with data silently
	// missing — so Close removes the shard instead of finalizing it.
	failed error
}

// OpenShardAppender creates (truncating) a shard at path and writes the
// header with a zero cube count placeholder.
func OpenShardAppender(path string) (*ShardAppender, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	a := &ShardAppender{path: path, f: f, w: bufio.NewWriter(f)}
	var hdr [fileHeaderLen]byte // the count stays zero until Close
	copy(hdr[:], storeMagic[:])
	if _, err := a.w.Write(hdr[:]); err != nil {
		_ = f.Close() // the header write error dominates
		return nil, err
	}
	return a, nil
}

// Append writes cube samples to the shard.
func (a *ShardAppender) Append(cubes ...sampling.CubeSample) error {
	if a.closed {
		return fmt.Errorf("sickle: append to closed shard %s", a.path)
	}
	if a.failed != nil {
		return a.failed
	}
	for i := range cubes {
		a.buf = appendCubeSample(a.buf[:0], &cubes[i])
		if _, err := a.w.Write(a.buf); err != nil {
			a.failed = err
			return err
		}
		a.n++
	}
	return nil
}

// Close flushes buffered data, patches the cube count into the header, and
// closes the file. As with SaveCubeSamples, the Close error of the
// underlying handle is propagated so full-disk truncation is not silently
// swallowed. If any Append failed, the shard is removed rather than
// finalized: a partially-written file must not survive looking valid.
// Closing twice is a no-op.
func (a *ShardAppender) Close() (err error) {
	if a.closed {
		return nil
	}
	a.closed = true
	if a.failed != nil {
		_ = a.f.Close() // the recorded append failure dominates
		os.Remove(a.path)
		return a.failed
	}
	defer func() {
		if cerr := a.f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := a.w.Flush(); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(a.n))
	if _, err := a.f.WriteAt(hdr[:], int64(len(storeMagic))); err != nil {
		return err
	}
	// fsync before close: Close alone only hands the pages to the kernel,
	// and a crash between close and writeback would leave a shard whose
	// header promises cubes the disk never got.
	return a.f.Sync()
}

// appendCubeSample appends one cube record in the SKL1 layout to buf.
func appendCubeSample(buf []byte, cs *sampling.CubeSample) []byte {
	le := binary.LittleEndian
	n := len(cs.LocalIdx)
	nf, nt := 0, 0
	if n > 0 {
		nf = len(cs.Features[0])
		nt = len(cs.Targets[0])
	}
	for _, v := range [...]int{cs.Snapshot, cs.Cube.I0, cs.Cube.J0, cs.Cube.K0,
		cs.Cube.Sx, cs.Cube.Sy, cs.Cube.Sz, cs.Cube.ID, n, nf, nt} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	for _, li := range cs.LocalIdx {
		buf = le.AppendUint32(buf, uint32(li))
	}
	for _, rows := range [...][][]float64{cs.Features, cs.Targets} {
		for _, row := range rows {
			for _, x := range row {
				buf = le.AppendUint64(buf, math.Float64bits(x))
			}
		}
	}
	return buf
}

// LoadCubeSamples reads cube samples from path. The counts in the file are
// untrusted: every declared section is checked against the bytes the file
// actually has left before anything is allocated for it, so a few corrupt
// header bytes cannot ask for gigabytes.
func LoadCubeSamples(path string) ([]sampling.CubeSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	le := binary.LittleEndian
	remaining := st.Size() // bytes of the file not yet consumed
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("sickle: corrupt shard %s: "+format, append([]any{path}, args...)...)
	}
	var buf []byte // one header or section at a time, reused across records
	read := func(size int64) error {
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("sickle: %s: %w", path, err)
		}
		remaining -= size
		return nil
	}
	if err := read(int64(len(storeMagic))); err != nil {
		return nil, err
	}
	if [4]byte(buf) != storeMagic {
		return nil, fmt.Errorf("sickle: %s is not a SKL1 subsample file", path)
	}
	if err := read(4); err != nil {
		return nil, err
	}
	nCubes := int64(le.Uint32(buf))
	if nCubes*recordHeaderLen > remaining {
		return nil, corrupt("header declares %d cubes, %d bytes follow", nCubes, remaining)
	}
	out := make([]sampling.CubeSample, 0, nCubes)
	// floats reads one n×per f64 section into rows.
	floats := func(rows [][]float64, size int64) error {
		if err := read(size); err != nil {
			return err
		}
		off := 0
		for _, row := range rows {
			for v := range row {
				row[v] = math.Float64frombits(le.Uint64(buf[off:]))
				off += 8
			}
		}
		return nil
	}
	for c := int64(0); c < nCubes; c++ {
		if remaining < recordHeaderLen {
			return nil, corrupt("cube record %d of %d starts %d bytes before the end", c, nCubes, remaining)
		}
		if err := read(recordHeaderLen); err != nil {
			return nil, err
		}
		var vals [recordHeaderLen / 4]int
		for i := range vals {
			vals[i] = int(le.Uint32(buf[4*i:]))
		}
		n, nf, nt := vals[8], vals[9], vals[10]
		idxLen, ok1 := sectionLen(n, 1, 4, remaining)
		featLen, ok2 := sectionLen(n, nf, 8, remaining-idxLen)
		tgtLen, ok3 := sectionLen(n, nt, 8, remaining-idxLen-featLen)
		if !ok1 || !ok2 || !ok3 {
			return nil, corrupt("cube record %d declares %d points × (%d features + %d targets), %d bytes follow",
				c, n, nf, nt, remaining)
		}
		cs := sampling.CubeSample{
			Snapshot: vals[0],
			Cube: grid.Hypercube{I0: vals[1], J0: vals[2], K0: vals[3],
				Sx: vals[4], Sy: vals[5], Sz: vals[6], ID: vals[7]},
			LocalIdx: make([]int, n),
			Features: sampling.SlabRows(n, nf),
			Targets:  sampling.SlabRows(n, nt),
		}
		if err := read(idxLen); err != nil {
			return nil, err
		}
		for i := range cs.LocalIdx {
			cs.LocalIdx[i] = int(le.Uint32(buf[4*i:]))
		}
		if err := floats(cs.Features, featLen); err != nil {
			return nil, err
		}
		if err := floats(cs.Targets, tgtLen); err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	// A well-formed shard ends exactly after the declared records; trailing
	// bytes mean a corrupt or partially-written file and must fail loudly
	// rather than load as a smaller, valid-looking dataset.
	if remaining != 0 {
		return nil, fmt.Errorf("sickle: %s has trailing bytes after %d cubes", path, nCubes)
	}
	return out, nil
}

// sectionLen returns the byte length of a record section of n rows × per
// values × size bytes, and whether it is representable and fits in the
// remaining bytes of the file.
func sectionLen(n, per, size int, remaining int64) (int64, bool) {
	// n and per come from u32s and size is 4 or 8, so per·size cannot
	// overflow; the product with n can, and Mul64's high word says so.
	hi, lo := bits.Mul64(uint64(n), uint64(per)*uint64(size))
	if hi != 0 || remaining < 0 || lo > uint64(remaining) {
		return 0, false
	}
	return int64(lo), true
}

// StorageReduction returns the size ratio full-dataset : subsample-file,
// the figure of merit for the paper's storage-reduction claim.
func StorageReduction(d *grid.Dataset, subsamplePath string) (float64, error) {
	st, err := os.Stat(subsamplePath)
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		return 0, fmt.Errorf("sickle: empty subsample file")
	}
	return float64(d.SizeBytes()) / float64(st.Size()), nil
}
