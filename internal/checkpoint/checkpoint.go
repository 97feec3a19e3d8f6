// Package checkpoint serializes flat model parameter vectors (and, more
// generally, training snapshots) to a compact, versioned binary format.
// A production deployment of FDA needs checkpoints in two places the
// paper implies but does not spell out: resuming long federated training
// runs, and shipping pre-trained weights into the transfer-learning
// scenario (§4, Figure 13). The format is deliberately simple — header,
// dimension, float64 payload, CRC — so any language can read it.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/tensor"
)

// magic identifies the file format; version gates layout changes.
// Version 1 is the original (step, params, w0) layout; version 2 appends
// named float64 sections and named uint64 counters, the representation a
// full training-session snapshot needs (per-worker replicas, optimizer
// moments, RNG positions, meter totals). Plain snapshots still write
// version 1, so files produced before sessions existed remain readable
// and byte-identical.
const (
	magic           = 0xFDA0C4EC
	version         = 1
	versionSections = 2
)

// Decoder caps: a length above these is corrupt, whatever the CRC says.
const (
	maxLen     = 1 << 30 // float64s in one vector (8 GiB)
	maxName    = 1 << 16 // bytes in one section or counter name
	maxEntries = 1 << 24 // sections or counters in one snapshot
)

var crcTable = crc64.MakeTable(crc64.ECMA)

var le = binary.LittleEndian

// Snapshot is a named training state: the flat parameter vector plus
// bookkeeping an FDA run needs to resume (step counter and the model at
// the last synchronization).
type Snapshot struct {
	// Step is the global step at which the snapshot was taken.
	Step int64
	// Params is the flat parameter vector w.
	Params []float64
	// W0 is the model at the most recent synchronization (may be nil for
	// plain model checkpoints, in which case it is stored empty).
	W0 []float64
	// Sections holds named auxiliary vectors (per-worker replicas,
	// optimizer moments, history columns). Nil for plain checkpoints.
	// Serialization is key-sorted, so equal snapshots encode to equal
	// bytes regardless of map iteration order.
	Sections map[string][]float64
	// Counters holds named integer state (RNG positions, step counters,
	// byte meters). Nil for plain checkpoints.
	Counters map[string]uint64
}

// Vec returns a named section (nil when absent).
func (s *Snapshot) Vec(name string) []float64 {
	if s.Sections == nil {
		return nil
	}
	return s.Sections[name]
}

// U64 returns a named counter and whether it was present.
func (s *Snapshot) U64(name string) (uint64, bool) {
	if s.Counters == nil {
		return 0, false
	}
	v, ok := s.Counters[name]
	return v, ok
}

// AddVec stores a copy of v as a named section.
func (s *Snapshot) AddVec(name string, v []float64) {
	if s.Sections == nil {
		s.Sections = map[string][]float64{}
	}
	s.Sections[name] = append([]float64(nil), v...)
}

// AddU64 stores a named counter.
func (s *Snapshot) AddU64(name string, v uint64) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	s.Counters[name] = v
}

// Marshal serializes s into one image: header, vectors, then a CRC64
// of everything before it. The error is always nil.
func Marshal(s *Snapshot) ([]byte, error) {
	ver := uint64(version)
	var sections, counters []string
	size := 8 * (6 + len(s.Params) + len(s.W0)) // header, two vectors, CRC
	if len(s.Sections) > 0 || len(s.Counters) > 0 {
		ver = versionSections
		sections, counters = sortedKeys(s.Sections), sortedKeys(s.Counters)
		size += 16
		for _, name := range sections {
			size += 16 + len(name) + 8*len(s.Sections[name])
		}
		for _, name := range counters {
			size += 16 + len(name)
		}
	}
	b := make([]byte, 0, size)
	b = le.AppendUint64(b, magic)
	b = le.AppendUint64(b, ver)
	b = le.AppendUint64(b, uint64(s.Step))
	b = appendVec(b, s.Params)
	b = appendVec(b, s.W0)
	if ver == versionSections {
		// Key-sorted section and counter tables: deterministic bytes.
		b = le.AppendUint64(b, uint64(len(sections)))
		for _, name := range sections {
			b = appendVec(appendStr(b, name), s.Sections[name])
		}
		b = le.AppendUint64(b, uint64(len(counters)))
		for _, name := range counters {
			b = le.AppendUint64(appendStr(b, name), s.Counters[name])
		}
	}
	return le.AppendUint64(b, crc64.Checksum(b, crcTable)), nil
}

func appendVec(b []byte, v []float64) []byte {
	return tensor.AppendLE(le.AppendUint64(b, uint64(len(v))), v)
}

func appendStr(b []byte, s string) []byte {
	return append(le.AppendUint64(b, uint64(len(s))), s...)
}

// Unmarshal decodes an image produced by Marshal (or Write), verifying
// magic, version, lengths and, last, the CRC. It accepts only the bytes
// Marshal writes: Marshal of its result gives back b.
func Unmarshal(b []byte) (*Snapshot, error) {
	d := decoder{rest: b}
	if m := d.u64(); d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", d.err)
	} else if m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", m)
	}
	ver := d.u64()
	if d.err == nil && ver != version && ver != versionSections {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	s := &Snapshot{Step: int64(d.u64()), Params: d.vec()}
	if w0 := d.vec(); len(w0) > 0 {
		s.W0 = w0
	}
	if ver == versionSections {
		s.Sections = table(&d, "section", d.vec)
		s.Counters = table(&d, "counter", d.u64)
		if d.err == nil && s.Sections == nil && s.Counters == nil {
			// Marshal writes such a snapshot as version 1.
			return nil, fmt.Errorf("checkpoint: version %d image with no sections and no counters", ver)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	want := crc64.Checksum(b[:len(b)-len(d.rest)], crcTable)
	if got := d.u64(); d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading CRC: %w", d.err)
	} else if got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch: file %#x computed %#x", got, want)
	}
	if len(d.rest) > 0 {
		return nil, fmt.Errorf("checkpoint: %d bytes after the CRC", len(d.rest))
	}
	return s, nil
}

// table reads a section or counter table: a count, then that many
// (name, value) entries. Names must ascend strictly, the order Marshal
// writes them in, so a duplicate or a reordering fails: Unmarshal takes
// exactly the images Marshal writes, and the run registry, which
// addresses snapshots by their bytes, never sees two images of one
// snapshot.
func table[V any](d *decoder, what string, val func() V) map[string]V {
	n := d.length(what+" count", maxEntries)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, min(n, 1024))
	prev := ""
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.str()
		if i > 0 && name <= prev && d.err == nil {
			d.err = fmt.Errorf("checkpoint: %s %q after %q: names must ascend", what, name, prev)
			return nil
		}
		m[name] = val()
		prev = name
	}
	return m
}

// decoder reads an image front to back. The first short read or
// implausible length sticks in err, and every later read returns zero.
type decoder struct {
	rest []byte
	err  error
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return le.Uint64(b)
}

// take consumes n bytes. A length the image cannot hold fails as a
// truncation here, before the caller allocates anything for it.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.rest)) {
		d.err = fmt.Errorf("checkpoint: %d bytes wanted, %d left: %w", n, len(d.rest), io.ErrUnexpectedEOF)
		return nil
	}
	b := d.rest[:n:n]
	d.rest = d.rest[n:]
	return b
}

// length reads a length field and fails it above limit.
func (d *decoder) length(what string, limit uint64) uint64 {
	n := d.u64()
	if n > limit {
		d.err = fmt.Errorf("checkpoint: implausible %s %d", what, n)
		return 0
	}
	return n
}

func (d *decoder) vec() []float64 {
	n := d.length("vector length", maxLen)
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	tensor.DecodeLE(v, b)
	return v
}

func (d *decoder) str() string {
	return string(d.take(d.length("name length", maxName)))
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Write serializes s to w as one Marshal image.
func Write(w io.Writer, s *Snapshot) error {
	b, _ := Marshal(s) // Marshal never fails
	_, err := w.Write(b)
	return err
}

// Read reads r to its end and decodes the image.
func Read(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading: %w", err)
	}
	return Unmarshal(b)
}

// Save writes a snapshot to path atomically: the finished image goes
// to a temp file in the same directory, which is then renamed.
func Save(path string, s *Snapshot) error {
	b, _ := Marshal(s) // Marshal never fails
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, path)
}

// Load reads a snapshot from path.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}
