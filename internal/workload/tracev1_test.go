package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
)

func TestTraceRoundTrip(t *testing.T) {
	reqs, err := specFixture(21).Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	var buf bytes.Buffer
	hdr := TraceHeader{Source: "test", CreatedUnix: 1754600000}
	if err := WriteTrace(&buf, hdr, reqs); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	gotHdr, got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if gotHdr.Format != TraceFormat || gotHdr.Version != TraceVersion || gotHdr.Source != "test" || gotHdr.CreatedUnix != 1754600000 {
		t.Fatalf("header mismatch: %+v", gotHdr)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip changed the schedule: %d in, %d out", len(reqs), len(got))
	}
}

func TestTraceRejectsCorruption(t *testing.T) {
	reqs, err := specFixture(22).Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{Source: "test"}, reqs[:20]); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	clean := buf.String()
	lines := strings.Split(strings.TrimRight(clean, "\n"), "\n")

	t.Run("flipped payload byte", func(t *testing.T) {
		// Change a digit inside an entry's offset: still valid JSON, but
		// the CRC no longer matches.
		mut := strings.Replace(lines[5], `"offset_ns":`, `"offset_ns":1`, 1)
		if mut == lines[5] {
			t.Fatal("mutation did not apply")
		}
		doc := strings.Join(append(append(append([]string{}, lines[:5]...), mut), lines[6:]...), "\n")
		if _, _, err := ReadTrace(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("corrupted entry accepted (err=%v)", err)
		}
	})

	t.Run("truncated tail", func(t *testing.T) {
		torn := clean[:len(clean)-15] // cut mid final line
		if _, _, err := ReadTrace(strings.NewReader(torn)); err == nil {
			t.Fatal("torn trace accepted")
		}
	})

	t.Run("reordered entries", func(t *testing.T) {
		doc := strings.Join([]string{lines[0], lines[2], lines[1]}, "\n")
		if _, _, err := ReadTrace(strings.NewReader(doc)); err == nil {
			t.Fatal("out-of-order sequence accepted")
		}
	})

	t.Run("wrong format", func(t *testing.T) {
		if _, _, err := ReadTrace(strings.NewReader(`{"format":"not-a-trace","version":1}` + "\n")); err == nil {
			t.Fatal("foreign format accepted")
		}
	})

	t.Run("future version", func(t *testing.T) {
		if _, _, err := ReadTrace(strings.NewReader(`{"format":"fda-trace","version":2}` + "\n")); err == nil {
			t.Fatal("future version accepted")
		}
	})

	t.Run("empty file", func(t *testing.T) {
		if _, _, err := ReadTrace(strings.NewReader("")); err == nil {
			t.Fatal("empty trace accepted")
		}
	})
}

// tickingClock moves one nanosecond forward on every read, so no two
// recordings share an instant and an offset read outside the writer
// lock could reach the file out of order.
type tickingClock struct{ clock.Virtual }

func (c *tickingClock) Now() int64 {
	c.Advance(1)
	return c.Virtual.Now()
}

// TestTraceWriterConcurrent pins the admission-order property: many
// goroutines recording at once still produce a valid trace (consecutive
// seqs, monotone offsets) containing exactly the requests issued. The
// header's created_unix is the clock's second at creation.
func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	clk := &tickingClock{}
	clk.Advance(1754600000e9)
	tw, err := NewTraceWriter(&buf, "test", clk)
	if err != nil {
		t.Fatalf("NewTraceWriter: %v", err)
	}
	// perWorker is a multiple of len(Kinds()) so each worker issues every
	// kind equally and the expected multiset is exact.
	const workers, perWorker = 16, 66
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kind := Kinds()[(w+i)%len(Kinds())]
				tw.Record(kind, "/v1/test", nil)
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Err(); err != nil {
		t.Fatalf("trace writer failed: %v", err)
	}
	hdr, reqs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrently recorded trace fails validation: %v", err)
	}
	if hdr.CreatedUnix != 1754600000 {
		t.Fatalf("created_unix = %d, want the clock's 1754600000", hdr.CreatedUnix)
	}
	if len(reqs) != workers*perWorker {
		t.Fatalf("recorded %d entries, want %d", len(reqs), workers*perWorker)
	}
	// Multiset of kinds matches what the workers issued: each kind was
	// recorded workers*perWorker/len(Kinds()) times by construction.
	counts := map[Kind]int{}
	for _, r := range reqs {
		counts[r.Kind]++
	}
	want := workers * perWorker / len(Kinds())
	for _, k := range Kinds() {
		if counts[k] != want {
			t.Fatalf("kind %s recorded %d times, want %d", k, counts[k], want)
		}
	}
}

// FuzzReadTrace feeds the trace reader arbitrary bytes — a trace file
// comes from another process (fdaserve -record, fdaload -export) or an
// operator's disk. It must reject what it does not accept, never panic;
// and what it accepts is a trace: writing it back out gives a file that
// reads back to the same header and requests and re-encodes byte for
// byte.
func FuzzReadTrace(f *testing.F) {
	reqs, err := specFixture(24).Schedule()
	if err != nil {
		f.Fatalf("Schedule: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{Source: "fuzz", CreatedUnix: 1754600000}, reqs[:8]); err != nil {
		f.Fatalf("WriteTrace: %v", err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	f.Add(clean[:len(clean)-15])                                         // torn tail
	f.Add(bytes.Replace(clean, []byte(`"seq":3`), []byte(`"seq":4`), 1)) // CRC and sequence
	f.Add([]byte(`{"format":"fda-trace","version":1}` + "\n"))           // header only
	f.Add([]byte(`{"format":"fda-trace","version":2}` + "\n"))           // future version
	// Accepted, but not in the writer's form: spaced JSON, an unescaped
	// '<', a CRC that is the canonical encoding's.
	loose := `{ "a" : "<" }`
	crc, err := requestCRC(Request{Kind: KindStatus, Body: json.RawMessage(loose)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"version":1, "format":"fda-trace"}` + "\n" + `{"crc":"` + crc + `", "kind":"status", "body":` + loose + `, "seq":0, "offset_ns":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, hdr, reqs); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		hdr2, reqs2, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v\n%s", err, first.Bytes())
		}
		if hdr2 != hdr || len(reqs2) != len(reqs) {
			t.Fatalf("rewritten trace reads back as %+v with %d requests, wrote %+v with %d", hdr2, len(reqs2), hdr, len(reqs))
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, hdr2, reqs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trace does not round-trip byte for byte:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
