package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runRecord is one workload invocation as kept in a runs file (-out),
// the input of compare.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Counts are exact, seed-determined counts the child printed beside
	// its result (comm_bytes_per_sample, samples, comm_bytes).
	Counts map[string]float64 `json:"counts,omitempty"`
}

type runsFile struct {
	Runs []runRecord `json:"runs"`
}

// countLinePrefix marks a diagnostic line carrying an exact count.
const countLinePrefix = "count "

// runChild executes one workload in a fresh child process — its own
// heap, its own peak RSS, its own set-up — relays what it prints and
// parses the result object from its last line.
func runChild(ctx context.Context, self, name string, seed uint64, seconds float64, trace int, echo io.Writer) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Trace: trace, Counts: map[string]float64{}}
	cmd := exec.CommandContext(ctx, self,
		"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	// On cancellation ask the child to clean up (it stops its own servers
	// and removes its temp dirs) before resorting to a kill.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, countLinePrefix); ok {
			if f := strings.Fields(rest); len(f) == 3 && f[0] == name {
				if v, err := strconv.ParseFloat(f[2], 64); err == nil {
					rec.Counts[f[1]] = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec); err != nil || rec.Metrics == nil {
		if runErr != nil {
			return rec, fmt.Errorf("%s: %w", name, runErr)
		}
		return rec, fmt.Errorf("%s: no result object on the last line of output", name)
	}
	if runErr != nil {
		return rec, fmt.Errorf("%s: %w", name, runErr)
	}
	return rec, nil
}

// runAll runs every workload once for one seed, each in its own child,
// one after another (never concurrently: they would time each other).
func runAll(ctx context.Context, seed uint64, seconds float64, traced bool, echo io.Writer) ([]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	for _, w := range workloads {
		passes := []int{0}
		if traced {
			passes = append(passes, 1)
		}
		for _, trace := range passes {
			rec, err := runChild(ctx, self, w.name, seed, seconds, trace, echo)
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

func writeRuns(path string, recs []runRecord) error {
	body, err := json.MarshalIndent(runsFile{Runs: recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func readRuns(path string) ([]runRecord, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// runAllMain is the no-workload mode of the command: every workload,
// each in a child process, every metric printed by name with its unit.
func runAllMain(ctx context.Context, seed uint64, seconds float64, traced bool, runs int, outPath string) int {
	var all []runRecord
	for r := 0; r < runs; r++ {
		recs, err := runAll(ctx, seed+uint64(r), seconds, traced, os.Stdout)
		all = append(all, recs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if outPath != "" {
		if err := writeRuns(outPath, all); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// noiseMain runs the same tree as several sets in alternation and
// fails when two sets of identical code disagree beyond a metric's
// bound, or when a seed-determined count differs at all.
func noiseMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("noise", flag.ContinueOnError)
	var (
		sets    = fs.Int("sets", 2, "number of sets of runs to compare with one another")
		runs    = fs.Int("runs", 5, "runs per set; run r of every set uses seed+r")
		seed    = fs.Uint64("seed", 1, "base seed")
		seconds = fs.Float64("seconds", defaultSeconds, "length of each timed phase")
		outPath = fs.String("out", "", "write set i's runs to <out>.<i>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets < 2 || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark noise: need -sets >= 2 and -runs >= 1")
		return 2
	}
	if _, err := findRoot(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bySet := make([][]runRecord, *sets)
	for r := 0; r < *runs; r++ {
		for s := 0; s < *sets; s++ {
			fmt.Printf("== noise: set %d run %d (seed %d)\n", s, r, *seed+uint64(r))
			recs, err := runAll(ctx, *seed+uint64(r), *seconds, false, io.Discard)
			bySet[s] = append(bySet[s], recs...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}
	if *outPath != "" {
		for s, recs := range bySet {
			if err := writeRuns(fmt.Sprintf("%s.%d.json", *outPath, s), recs); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}
	code := 0
	for a := 0; a < *sets; a++ {
		for b := a + 1; b < *sets; b++ {
			fmt.Printf("\n== set %d against set %d (identical code)\n", a, b)
			rows := compareRuns(bySet[a], bySet[b])
			printComparison(os.Stdout, rows)
			for _, row := range rows {
				// Identical code: a difference beyond the bound in either
				// direction is noise the benchmark failed to suppress.
				if row.countsChanged > 0 || row.Verdict == "worse" || row.Verdict == "better" {
					code = 1
				}
			}
		}
	}
	if code != 0 {
		fmt.Println("\nnoise: FAIL — identical code disagreed beyond a bound; lengthen the segments, do not widen the bound")
	} else {
		fmt.Println("\nnoise: ok — every pair of sets agrees within the bounds and every count repeats exactly")
	}
	return code
}
