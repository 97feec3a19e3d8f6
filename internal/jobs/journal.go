package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// journal appends job status transitions to the replica's own file in
// the store directory (JournalFile), so an operator — or the replica
// itself after a restart — can see which runs were interrupted: the
// discovery half of registry-backed resume. Journal writes are
// advisory: a failure disables the journal but never a run.
type journal struct {
	mu   sync.Mutex
	path string
	bad  bool
}

// entry is one journal line: a job's view, stamped, with its dedupe key
// so a restarted server can re-register the job under it (entries from
// before the key was journaled recover without one and never dedupe).
type entry struct {
	Time time.Time `json:"time"`
	Key  string    `json:"key,omitempty"`
	View
}

// JournalFile names replica name's journal, jobs-<name>.jsonl with the
// name query-escaped: any name (a listen address like ":8080", a label
// with a slash) is one portable file name, and distinct names never
// share a file. A name too long to escape into one gets a digest.
func JournalFile(name string) string {
	esc := url.QueryEscape(name)
	if len(esc) > 128 {
		sum := sha256.Sum256([]byte(name))
		esc = hex.EncodeToString(sum[:8])
	}
	return "jobs-" + esc + ".jsonl"
}

func (jn *journal) record(now time.Time, v View, key string) {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.bad {
		return
	}
	line, err := json.Marshal(entry{Time: now.UTC(), Key: key, View: v})
	if err != nil {
		return
	}
	f, err := os.OpenFile(jn.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		jn.bad = true
	}
}

// read parses the journal into one entry per job — the last journaled
// transition wins, in first-seen job order. Unparseable lines (a torn
// tail from a crash mid-append) are skipped, not fatal.
func (jn *journal) read() ([]entry, error) {
	b, err := os.ReadFile(jn.path)
	if err != nil {
		return nil, err
	}
	var entries []entry
	index := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.ID == "" {
			continue
		}
		if i, ok := index[e.ID]; ok {
			entries[i] = e
		} else {
			index[e.ID] = len(entries)
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// compact atomically rewrites the journal to one line per job.
func (jn *journal) compact(entries []entry) {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.bad {
		return
	}
	var b strings.Builder
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	tmp := jn.path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		jn.bad = true
		return
	}
	if err := os.Rename(tmp, jn.path); err != nil {
		jn.bad = true
	}
}

// Recover replays the journal previous processes left: jobs journaled
// mid-run resurface as interrupted (their keys give way to
// resubmissions, which resume from the registry), the id counter
// continues past every journaled id, and the file is compacted to its
// last entry per job. Call it once, before the first Submit; a missing
// journal is no error.
func (t *Table) Recover() error {
	entries, err := t.journal.read()
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	for i, e := range entries {
		// An id at the counter's ceiling is not continued past: the
		// counter would wrap round to ids the journal may hold.
		var n int
		if _, err := fmt.Sscanf(e.ID, "r%d", &n); err == nil && n > t.nextID && n < math.MaxInt {
			t.nextID = n
		}
		if e.Status != Running && e.Status != Interrupted {
			continue // terminal in a past life; history only
		}
		e.Status = Interrupted
		if e.Error == "" {
			e.Error = "server exited mid-run; resubmit to resume"
		}
		entries[i] = e
		j := recovered(e)
		t.byID[j.ID] = j
		if j.Key != "" {
			t.byKey[j.Key] = j
		}
		t.order = append(t.order, j)
	}
	t.retire()
	t.mu.Unlock()
	t.journal.compact(entries)
	return nil
}

// recovered rebuilds an interrupted job from its journal entry. It is
// terminal and never runs: no goroutine, context or event stream.
func recovered(e entry) *Job {
	j := &Job{
		ID: e.ID, Kind: e.Kind, Experiment: e.Experiment, Scale: e.Scale, Seed: e.Seed, Key: e.Key,
		status: e.Status, errMsg: e.Error,
	}
	if e.Cells > 0 || e.Cached > 0 || e.Executed > 0 || e.SnapshotHits > 0 {
		j.Stats = &experiments.SweepStats{}
		j.Stats.Cells.Store(e.Cells)
		j.Stats.Cached.Store(e.Cached)
		j.Stats.Executed.Store(e.Executed)
		j.Stats.SnapshotHits.Store(e.SnapshotHits)
		j.Stats.StepsSaved.Store(e.StepsSaved)
	}
	j.Steps.Store(e.Steps)
	j.Syncs.Store(e.Syncs)
	j.Resumed.Store(e.Resumed)
	return j
}
