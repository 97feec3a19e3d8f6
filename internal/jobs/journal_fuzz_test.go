package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzJournalRecover hands recovery arbitrary journal bytes: the file
// a crash can tear anywhere and an operator can edit by hand. Reading and
// recovering never panic, compacting the journal and reading it back
// returns the entries it was compacted from, every job recovery
// resurrects is interrupted, and the next job gets an id that no
// journaled job holds.
func FuzzJournalRecover(f *testing.F) {
	f.Add([]byte(`{"time":"2026-08-08T00:00:00Z","key":"sweep|smoke|tiny|9","id":"r7","kind":"sweep","experiment":"smoke","scale":"tiny","seed":9,"status":"running","cells":2,"executed":1}` + "\n" + `{"time":"2026-08-08T0`))
	f.Add([]byte(`{"id":"r3","status":"running"}` + "\n" + `{"id":"r3","status":"done"}` + "\n" + `{"id":"r12","status":"interrupted","key":"k"}` + "\r\n"))
	f.Add([]byte("\n\n{}\n[1,2]\nnull\n{\"id\":\"\"}\n{\"id\":\"r+4\",\"status\":\"running\"}\n{\"id\":\"r 5x\"}\n"))
	f.Add([]byte(`{"time":"2026-08-08T10:00:00+05:30","id":"r1","status":"failed","error":"ÿ\ud800"}`))
	// An id at the counter's ceiling: continuing past it wrapped the
	// counter round to an id the journal already held.
	f.Add([]byte(`{"id":"r9223372036854775807","status":"done"}` + "\n" + `{"id":"r-9223372036854775808","status":"running"}` + "\n"))
	epoch := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalFile("")), body, 0o644); err != nil {
			t.Fatal(err)
		}
		tb := New(dir, "", 4, func() time.Time { return epoch }, context.Background())
		journaled, err := tb.journal.read()
		if err != nil {
			t.Fatal(err)
		}
		tb.journal.compact(journaled)
		again, err := tb.journal.read()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(journaled)
		got, _ := json.Marshal(again)
		if !bytes.Equal(got, want) {
			t.Fatalf("compacted journal reads back as\n%s\nnot\n%s", got, want)
		}

		if err := tb.Recover(); err != nil {
			t.Fatal(err)
		}
		for _, v := range tb.List() {
			if v.Status != Interrupted {
				t.Fatalf("job %q resurrected as %q", v.ID, v.Status)
			}
		}
		j, _, err := tb.Submit("fuzz|next", func(*Job) {}, func(context.Context, *Job) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		tb.Wait()
		for _, e := range journaled {
			if e.ID == j.ID {
				t.Fatalf("new job got id %q, which the journal already holds", j.ID)
			}
		}
	})
}
