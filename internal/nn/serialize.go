package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Checkpoint format (little-endian): magic "SKNN" | nParams u32 | per
// param: nameLen u32, name bytes, rank u32, dims u32×rank, data f64×len.
var ckptMagic = [4]byte{'S', 'K', 'N', 'N'}

// SaveCheckpoint writes a module's parameters to path. Close errors are
// propagated so a checkpoint truncated by a full disk is reported rather
// than silently accepted.
func SaveCheckpoint(path string, m Module) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := w.Write(ckptMagic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	params := m.Params()
	if err := binary.Write(w, le, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(w, le, uint32(len(p.Name))); err != nil {
			return err
		}
		if _, err := w.WriteString(p.Name); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint32(len(p.W.Shape))); err != nil {
			return err
		}
		for _, d := range p.W.Shape {
			if err := binary.Write(w, le, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(w, le, p.W.Data); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// fsync so a crash right after "checkpoint saved" cannot leave a
	// truncated file behind the success message.
	return f.Sync()
}

// LoadCheckpoint restores parameters into a module with the identical
// architecture (same parameter order and shapes).
func LoadCheckpoint(path string, m Module) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return err
	}
	if magic != ckptMagic {
		return fmt.Errorf("nn: %s is not a SKNN checkpoint", path)
	}
	le := binary.LittleEndian
	var n uint32
	if err := binary.Read(r, le, &n); err != nil {
		return err
	}
	params := m.Params()
	if int(n) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, module has %d", n, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(r, le, &nameLen); err != nil {
			return err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint param %q, module expects %q", name, p.Name)
		}
		var rank uint32
		if err := binary.Read(r, le, &rank); err != nil {
			return err
		}
		if int(rank) != len(p.W.Shape) {
			return fmt.Errorf("nn: param %q rank %d, want %d", name, rank, len(p.W.Shape))
		}
		for i := 0; i < int(rank); i++ {
			var d uint32
			if err := binary.Read(r, le, &d); err != nil {
				return err
			}
			if int(d) != p.W.Shape[i] {
				return fmt.Errorf("nn: param %q dim %d is %d, want %d", name, i, d, p.W.Shape[i])
			}
		}
		if err := binary.Read(r, le, p.W.Data); err != nil {
			return err
		}
	}
	return nil
}
