package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// playJournal drives one table on a virtual clock through a fixed
// script — a job that finishes with a result, one that fails, one that
// is cancelled, a dedupe hit — and returns the journal it wrote and the
// virtual instant each journal line was written at.
func playJournal(t *testing.T, dir string) ([]byte, []int64) {
	t.Helper()
	clk := &clock.Virtual{}
	clk.Advance(1_786_000_000_123_456_789)
	tb := New(dir, "r1", 8, clk, func(any) int64 { return 42 }, context.Background())
	var instants []int64
	gate := func(release chan struct{}, res any, err error) func(context.Context, *Job) (any, error) {
		return func(ctx context.Context, _ *Job) (any, error) {
			select {
			case <-release:
				return res, err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	submit := func(key, kind string, release chan struct{}, res any, err error) *Job {
		clk.Advance(1_000_003)
		j, existing, serr := tb.Submit(key, func(j *Job) {
			j.Kind, j.Experiment, j.Seed = kind, key, 7
			if kind == "sweep" {
				j.Stats = &SweepStats{}
			}
		}, gate(release, res, err))
		if serr != nil || existing {
			t.Fatalf("Submit(%s): existing=%v err=%v", key, existing, serr)
		}
		instants = append(instants, clk.Now())
		return j
	}
	finish := func(j *Job, release chan struct{}) {
		clk.Advance(2_500_000_001)
		if release != nil {
			close(release)
		} else {
			j.Cancel()
		}
		<-j.Done()
		instants = append(instants, clk.Now())
	}

	relA, relB := make(chan struct{}), make(chan struct{})
	a := submit("a", "train", relA, "result", nil)
	b := submit("b", "sweep", relB, nil, errors.New("boom"))
	b.Stats.Cells.Store(3)
	b.Stats.Executed.Store(1)
	c := submit("c", "train", make(chan struct{}), nil, nil)
	if dup, existing, _ := tb.Submit("a", func(*Job) {}, noop); !existing || dup != a {
		t.Fatal("resubmitting a running key did not dedupe")
	}
	finish(a, relA)
	finish(b, relB)
	finish(c, nil)
	tb.Wait()
	journal, err := os.ReadFile(filepath.Join(dir, JournalFile("r1")))
	if err != nil {
		t.Fatal(err)
	}
	return journal, instants
}

// TestJournalDeterministicOnVirtualClock is the serving tier's "same
// seed → same bytes" check: two tables fed the same submissions and
// outcomes on a virtual clock write byte-identical journals, and every
// line is stamped with the virtual instant it was written at.
func TestJournalDeterministicOnVirtualClock(t *testing.T) {
	first, instants := playJournal(t, t.TempDir())
	second, _ := playJournal(t, t.TempDir())
	if !bytes.Equal(first, second) {
		t.Fatalf("journals differ:\n%s\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSuffix(string(first), "\n"), "\n")
	if len(lines) != len(instants) {
		t.Fatalf("%d journal lines, want %d:\n%s", len(lines), len(instants), first)
	}
	var statuses []string
	for i, line := range lines {
		var e struct {
			Time       json.RawMessage `json:"time"`
			ID, Status string
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		want, _ := json.Marshal(time.Unix(0, instants[i]).UTC())
		if !bytes.Equal(e.Time, want) {
			t.Fatalf("line %d (%s) stamped %s, want the virtual instant %s", i+1, e.Status, e.Time, want)
		}
		statuses = append(statuses, e.ID+":"+e.Status)
	}
	if got, want := strings.Join(statuses, " "), "r1:running r2:running r3:running r1:done r2:failed r3:cancelled"; got != want {
		t.Fatalf("journaled transitions %q, want %q", got, want)
	}
}
