package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/clock"
)

// Trace format v1 (DESIGN.md §13): a JSONL file whose first line is a
// schema header and whose remaining lines are one Request each, in
// admission order, with a CRC-32C trailer field:
//
//	{"format":"fda-trace","version":1,"source":"fdaserve","created_unix":1754600000}
//	{"seq":0,"offset_ns":12345,"kind":"train","body":{...},"crc":"9c2f1ab4"}
//
// The CRC covers the canonical marshaling of the entry without the crc
// field, sequence numbers are consecutive from 0, and offsets are
// non-decreasing — ReadTrace rejects violations of any of the three,
// plus torn (truncated mid-line) tails, so a replayed trace is either
// exactly what was recorded or an error, never a silent prefix.

// TraceFormat and TraceVersion identify trace containers this package
// can read and write.
const (
	TraceFormat  = "fda-trace"
	TraceVersion = 1
)

var traceCRCTable = crc32.MakeTable(crc32.Castagnoli)

// TraceHeader is the first line of a trace file.
type TraceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Source labels the producer ("fdaserve" for recorded traces,
	// "fdaload" for exported schedules).
	Source string `json:"source,omitempty"`
	// CreatedUnix is the producer's wall-clock creation time. It is
	// descriptive metadata only — nothing replays from it.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// traceLine is one entry line: the request plus its CRC trailer.
type traceLine struct {
	Request
	CRC string `json:"crc"`
}

// requestCRC computes the entry checksum: CRC-32C over the canonical
// JSON of the request itself (the line minus its crc field).
func requestCRC(r Request) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.Checksum(b, traceCRCTable)), nil
}

// WriteTrace writes a complete trace: header, then one line per
// request with seq rewritten to the line index. Byte-identical input
// schedules produce byte-identical trace files.
func WriteTrace(w io.Writer, hdr TraceHeader, reqs []Request) error {
	hdr.Format, hdr.Version = TraceFormat, TraceVersion
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	bw.Write(hb)
	bw.WriteByte('\n')
	for i, r := range reqs {
		r.Seq = int64(i)
		if err := writeTraceLine(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeTraceLine(w io.Writer, r Request) error {
	crc, err := requestCRC(r)
	if err != nil {
		return err
	}
	lb, err := json.Marshal(traceLine{Request: r, CRC: crc})
	if err != nil {
		return err
	}
	_, err = w.Write(append(lb, '\n'))
	return err
}

// ReadTrace parses and verifies a v1 trace: header first, then every
// entry's CRC, consecutive sequence numbers, non-decreasing offsets
// and known kinds. Any violation — including a torn final line from a
// crashed recorder — is an error identifying the offending line.
func ReadTrace(r io.Reader) (TraceHeader, []Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return TraceHeader{}, nil, err
		}
		return TraceHeader{}, nil, fmt.Errorf("workload: empty trace (missing header)")
	}
	var hdr TraceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return TraceHeader{}, nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if hdr.Format != TraceFormat {
		return TraceHeader{}, nil, fmt.Errorf("workload: not a trace file (format %q, want %q)", hdr.Format, TraceFormat)
	}
	if hdr.Version != TraceVersion {
		return TraceHeader{}, nil, fmt.Errorf("workload: unsupported trace version %d (this build reads v%d)", hdr.Version, TraceVersion)
	}
	var reqs []Request
	var lastOffset int64
	for line := 1; sc.Scan(); line++ {
		var tl traceLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return hdr, nil, fmt.Errorf("workload: trace line %d: corrupt or truncated entry: %w", line, err)
		}
		crc, err := requestCRC(tl.Request)
		if err != nil {
			return hdr, nil, err
		}
		if crc != tl.CRC {
			return hdr, nil, fmt.Errorf("workload: trace line %d: CRC mismatch (have %s, computed %s)", line, tl.CRC, crc)
		}
		if tl.Seq != int64(line-1) {
			return hdr, nil, fmt.Errorf("workload: trace line %d: sequence %d out of order (want %d)", line, tl.Seq, line-1)
		}
		if tl.Offset < lastOffset {
			return hdr, nil, fmt.Errorf("workload: trace line %d: offset %dns before predecessor %dns", line, tl.Offset, lastOffset)
		}
		if !ValidKind(tl.Kind) {
			return hdr, nil, fmt.Errorf("workload: trace line %d: unknown request kind %q", line, tl.Kind)
		}
		lastOffset = tl.Offset
		reqs = append(reqs, tl.Request)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	return hdr, reqs, nil
}

// TraceWriter journals requests as they are admitted by a live server
// (fdaserve -record). Sequence numbers, offsets and line writes all
// happen under one mutex, so entries land in admission order and
// offsets are monotone even under full handler concurrency — the
// property the concurrent-recording regression test pins. Offsets are
// read off the injected clock relative to the writer's creation, so a
// trace replays at its original cadence whenever it was captured.
type TraceWriter struct {
	mu    sync.Mutex
	w     io.Writer
	clk   clock.Clock
	start int64
	seq   int64
	last  int64
	err   error // first write error; recording disables itself, never the server
}

// NewTraceWriter writes the trace header, stamped with clk's current
// Unix second, and returns a recorder timed by clk.
func NewTraceWriter(w io.Writer, source string, clk clock.Clock) (*TraceWriter, error) {
	start := clk.Now()
	hb, err := json.Marshal(TraceHeader{Format: TraceFormat, Version: TraceVersion, Source: source, CreatedUnix: start / 1e9})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(append(hb, '\n')); err != nil {
		return nil, err
	}
	return &TraceWriter{w: w, clk: clk, start: start}, nil
}

// Record journals one admitted request. The sequence number and offset
// are assigned under the writer lock — the admission order is the
// journal order by construction. Returns the assigned sequence number.
func (tw *TraceWriter) Record(kind Kind, path string, body json.RawMessage) int64 {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return -1
	}
	off := tw.clk.Now() - tw.start
	if off < tw.last {
		off = tw.last
	}
	tw.last = off
	seq := tw.seq
	tw.seq++
	if err := writeTraceLine(tw.w, Request{Seq: seq, Offset: off, Kind: kind, Path: path, Body: body}); err != nil {
		tw.err = err
		return -1
	}
	return seq
}

// Err reports the first write error, if recording has failed.
func (tw *TraceWriter) Err() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.err
}
