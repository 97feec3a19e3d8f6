package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
)

const (
	serveClients  = 2
	servePollGap  = 5 * time.Millisecond
	serveJobModel = "lenet5s"
	serveJobK     = 4
	serveJobSteps = 100
	serveJobBatch = 32 // fdaserve's default batch
	// serveOpTimeout bounds one op; a job that has not reached a
	// terminal status by then is a failed op.
	serveOpTimeout = 60 * time.Second
)

// serveOp is one client operation of a segment. Body is the exact
// request body for the submitting kinds. Ref numbers a train job within
// its segment; a resubmit or records op names by it the job it repeats
// or reads.
type serveOp struct {
	Kind string `json:"kind"` // train, sweep, resubmit, records, runs, store
	Body string `json:"body,omitempty"`
	Ref  int    `json:"ref"`
}

// serveStrategies rotate over a segment's train jobs.
var serveStrategies = []string{"LinearFDA", "SketchFDA", "Synchronous"}

// serveSegmentOps lists the 14 ops of one segment: always the same
// composition, with job seeds derived from the run seed and the
// segment label so every segment submits fresh specs. Resubmissions
// and the records read refer to train jobs submitted at least seven ops
// earlier: clients take ops in list order and finish one before taking
// the next, so those jobs are done by then (if one is not, the op waits
// for it — counts stay exact either way).
func serveSegmentOps(seed uint64, label string) []serveOp {
	train := func(i int) serveOp {
		body, err := json.Marshal(map[string]any{
			"model": serveJobModel, "strategy": serveStrategies[i%len(serveStrategies)],
			"k": serveJobK, "steps": serveJobSteps,
			"seed": deriveSeed(seed, fmt.Sprintf("serve/%s/train/%d", label, i)),
		})
		if err != nil {
			panic(err)
		}
		return serveOp{Kind: "train", Body: string(body), Ref: i}
	}
	sweep, err := json.Marshal(map[string]any{
		"experiment": "smoke", "scale": "tiny",
		"seed": deriveSeed(seed, "serve/"+label+"/sweep"),
	})
	if err != nil {
		panic(err)
	}
	return []serveOp{
		train(0), train(1), train(2), train(3),
		{Kind: "sweep", Body: string(sweep)},
		train(4), train(5),
		{Kind: "records", Ref: 0},
		train(6), train(7),
		{Kind: "resubmit", Ref: 1},
		{Kind: "runs"},
		{Kind: "resubmit", Ref: 2},
		{Kind: "store"},
	}
}

// serveCluster is one fdaserve replica behind an fdagate gateway, both
// child processes on ephemeral loopback ports.
type serveCluster struct {
	serve, gate       *child
	serveURL, gateURL string
	storeDir          string
	client            *http.Client
}

// startServeCluster boots the replica, waits until it is healthy,
// boots the gateway in front of it and waits for that. A server that
// loses the race for its reserved port is restarted on a fresh one.
func startServeCluster(ctx context.Context, root, serveBin, gateBin string) (*serveCluster, error) {
	storeDir, err := scratchDir(root, "serve-store")
	if err != nil {
		return nil, err
	}
	c := &serveCluster{storeDir: storeDir, client: &http.Client{Timeout: 30 * time.Second}}
	boot := func(name, bin string, args func(addr string) []string) (*child, string, error) {
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			port, err := freePort()
			if err != nil {
				return nil, "", err
			}
			addr := fmt.Sprintf("127.0.0.1:%d", port)
			ch, err := startChild(ctx, name, bin, args(addr)...)
			if err != nil {
				return nil, "", err
			}
			url := "http://" + addr
			if lastErr = waitHealthy(ctx, c.client, url+"/healthz", ch); lastErr == nil {
				return ch, url, nil
			}
			ch.stop()
			if ctx.Err() != nil {
				break
			}
		}
		return nil, "", lastErr
	}
	c.serve, c.serveURL, err = boot("fdaserve", serveBin, func(addr string) []string {
		return []string{"-addr", addr, "-store", storeDir, "-name", "r0"}
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gate, c.gateURL, err = boot("fdagate", gateBin, func(addr string) []string {
		return []string{"-addr", addr, "-replicas", c.serveURL}
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop reaps both processes, removes the store and returns the sum of
// their peak resident sets.
func (c *serveCluster) stop() (rssMB float64) {
	for _, ch := range []*child{c.gate, c.serve} {
		if ch != nil {
			rssMB += ch.stop()
		}
	}
	c.client.CloseIdleConnections()
	os.RemoveAll(c.storeDir)
	return rssMB
}

// httpCall is one request/response, timed.
type httpCall struct {
	status int
	body   []byte
	ms     float64
}

// serveClient is one closed-loop caller: it waits for each reply
// before sending the next request.
type serveClient struct {
	c    *serveCluster
	lane *lane // nil when untraced
	// parent/op attach this client's HTTP spans to its current op.
	parent int32
	op     int64
}

func (cl *serveClient) call(ctx context.Context, spanName, method, url string, body string) (httpCall, error) {
	i := -1
	if cl.lane != nil {
		i, _ = cl.lane.beginUnder(spanName, cl.parent, cl.op)
	}
	t0 := time.Now()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return httpCall{}, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.c.client.Do(req)
	if err != nil {
		return httpCall{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cl.lane != nil {
		cl.lane.end(i)
	}
	if err != nil {
		return httpCall{}, err
	}
	return httpCall{status: resp.StatusCode, body: b, ms: float64(time.Since(t0)) / 1e6}, nil
}

// finishedJob is a train job the segment has seen reach "done".
type finishedJob struct {
	id, body string
	records  []byte
}

// serveSegmentState is what the clients of one segment share.
type serveSegmentState struct {
	mu       sync.Mutex
	finished map[int]finishedJob // by train ordinal
	seg      segment
	out      *outcome
	// admitMs, dedupeMs and readMs collect single-request latencies for
	// the fdaserve layer metrics.
	admitMs, dedupeMs, readMs []float64
}

// noteMs books one single-request latency into one of the state's lists.
func (st *serveSegmentState) noteMs(into *[]float64, ms float64) {
	st.mu.Lock()
	*into = append(*into, ms)
	st.mu.Unlock()
}

// waitFinished returns the segment's train job number ref once it has
// finished.
func (st *serveSegmentState) waitFinished(ctx context.Context, ref int) (finishedJob, error) {
	for {
		st.mu.Lock()
		job, ok := st.finished[ref]
		st.mu.Unlock()
		if ok {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return finishedJob{}, fmt.Errorf("waiting for train job %d of the segment: %w", ref, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

var errRefused = errors.New("submission refused (503)")

// submitAndWait posts a job and polls its status every 5 ms until it
// is terminal. It returns the job id, the POST's own latency and the
// final status.
func (cl *serveClient) submitAndWait(ctx context.Context, path, body string) (id string, postMs float64, status string, err error) {
	post, err := cl.call(ctx, "http.post", http.MethodPost, cl.c.gateURL+path, body)
	if err != nil {
		return "", 0, "", err
	}
	if post.status == http.StatusServiceUnavailable {
		return "", post.ms, "", errRefused
	}
	if post.status != http.StatusAccepted && post.status != http.StatusOK {
		return "", post.ms, "", fmt.Errorf("POST %s: status %d: %s", path, post.status, post.body)
	}
	var view struct{ ID, Status string }
	if err := json.Unmarshal(post.body, &view); err != nil {
		return "", post.ms, "", err
	}
	for view.Status == "running" {
		select {
		case <-ctx.Done():
			return view.ID, post.ms, "", ctx.Err()
		case <-time.After(servePollGap):
		}
		get, err := cl.call(ctx, "http.poll", http.MethodGet, cl.c.gateURL+"/v1/runs/"+view.ID, "")
		if err != nil {
			return view.ID, post.ms, "", err
		}
		if get.status != http.StatusOK {
			return view.ID, post.ms, "", fmt.Errorf("GET run %s: status %d", view.ID, get.status)
		}
		if err := json.Unmarshal(get.body, &view); err != nil {
			return view.ID, post.ms, "", err
		}
	}
	return view.ID, post.ms, view.Status, nil
}

// records fetches a finished job's records document.
func (cl *serveClient) records(ctx context.Context, id string) (httpCall, error) {
	got, err := cl.call(ctx, "http.get", http.MethodGet, cl.c.gateURL+"/v1/runs/"+id+"/records", "")
	if err == nil && got.status != http.StatusOK {
		err = fmt.Errorf("GET records %s: status %d: %s", id, got.status, got.body)
	}
	return got, err
}

// do performs one op and books its latency, delivered work and faults.
func (cl *serveClient) do(ctx context.Context, op serveOp, st *serveSegmentState) {
	ctx, cancel := context.WithTimeout(ctx, serveOpTimeout)
	defer cancel()
	rootIdx := -1
	if cl.lane != nil {
		cl.op = cl.lane.t.op.Add(1)
		rootIdx, cl.parent = cl.lane.beginUnder("op."+op.Kind, 0, cl.op)
	}
	t0 := time.Now()
	var (
		samples, commBytes int64
		refused            bool
		err                error
	)
	switch op.Kind {
	case "train":
		samples, commBytes, err = cl.doTrain(ctx, op, st)
	case "sweep":
		samples, commBytes, err = cl.doSweep(ctx, op.Body)
	case "resubmit":
		samples, commBytes, err = cl.doResubmit(ctx, op.Ref, st)
	case "records":
		var job finishedJob
		if job, err = st.waitFinished(ctx, op.Ref); err != nil {
			break
		}
		var got httpCall
		if got, err = cl.records(ctx, job.id); err == nil {
			st.noteMs(&st.readMs, got.ms)
		}
	case "runs", "store":
		var got httpCall
		got, err = cl.call(ctx, "http.get", http.MethodGet, cl.c.gateURL+"/v1/"+op.Kind, "")
		if err == nil && got.status != http.StatusOK {
			err = fmt.Errorf("GET /v1/%s: status %d", op.Kind, got.status)
		}
		if err == nil {
			st.noteMs(&st.readMs, got.ms)
		}
	default:
		err = fmt.Errorf("unknown op kind %q", op.Kind)
	}
	ms := float64(time.Since(t0)) / 1e6
	if cl.lane != nil {
		cl.lane.end(rootIdx)
		cl.parent = 0
	}
	if errors.Is(err, errRefused) {
		refused = true
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.out.attempted++
	if err != nil {
		st.out.failed++
		if refused {
			st.out.refused++
		}
		st.out.faultf("serve_mix: %s op: %v", op.Kind, err)
		return
	}
	st.seg.opMs = append(st.seg.opMs, ms)
	st.seg.samples += samples
	st.out.samples += samples
	st.out.commBytes += commBytes
}

func trainTotals(recordsDoc []byte) (samples, commBytes int64, err error) {
	var doc struct{ Records core.Result }
	if err := json.Unmarshal(recordsDoc, &doc); err != nil {
		return 0, 0, err
	}
	if doc.Records.Steps != serveJobSteps {
		return 0, 0, fmt.Errorf("train job ran %d steps, want %d", doc.Records.Steps, serveJobSteps)
	}
	return int64(doc.Records.Steps) * serveJobBatch * serveJobK, doc.Records.CommBytes, nil
}

func (cl *serveClient) doTrain(ctx context.Context, op serveOp, st *serveSegmentState) (samples, commBytes int64, err error) {
	id, postMs, status, err := cl.submitAndWait(ctx, "/v1/train", op.Body)
	if err != nil {
		return 0, 0, err
	}
	if status != "done" {
		return 0, 0, fmt.Errorf("train job %s ended %q", id, status)
	}
	got, err := cl.records(ctx, id)
	if err != nil {
		return 0, 0, err
	}
	if samples, commBytes, err = trainTotals(got.body); err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	st.admitMs = append(st.admitMs, postMs)
	st.finished[op.Ref] = finishedJob{id: id, body: op.Body, records: got.body}
	st.mu.Unlock()
	return samples, commBytes, nil
}

func (cl *serveClient) doSweep(ctx context.Context, body string) (samples, commBytes int64, err error) {
	id, _, status, err := cl.submitAndWait(ctx, "/v1/runs", body)
	if err != nil {
		return 0, 0, err
	}
	if status != "done" {
		return 0, 0, fmt.Errorf("sweep %s ended %q", id, status)
	}
	got, err := cl.records(ctx, id)
	if err != nil {
		return 0, 0, err
	}
	var doc struct{ Records []experiments.Record }
	if err := json.Unmarshal(got.body, &doc); err != nil {
		return 0, 0, err
	}
	if len(doc.Records) == 0 {
		return 0, 0, fmt.Errorf("sweep %s returned no records", id)
	}
	for _, r := range doc.Records {
		samples += int64(r.Steps) * sweepBatch * int64(r.K)
		commBytes += int64(math.Round(r.CommGB * 1e9))
	}
	return samples, commBytes, nil
}

// doResubmit posts the spec of the segment's train job number ref
// again: the server must answer with the same job, already done, and
// the same records.
func (cl *serveClient) doResubmit(ctx context.Context, ref int, st *serveSegmentState) (samples, commBytes int64, err error) {
	job, err := st.waitFinished(ctx, ref)
	if err != nil {
		return 0, 0, err
	}
	id, postMs, status, err := cl.submitAndWait(ctx, "/v1/train", job.body)
	if err != nil {
		return 0, 0, err
	}
	if id != job.id || status != "done" {
		return 0, 0, fmt.Errorf("resubmission of %s answered id %s status %q", job.id, id, status)
	}
	got, err := cl.records(ctx, id)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(got.body, job.records) {
		return 0, 0, fmt.Errorf("resubmission of %s returned different records", job.id)
	}
	st.noteMs(&st.dedupeMs, postMs)
	return trainTotals(got.body)
}

// runServeSegment drives one segment: the clients pull ops from one
// shared list until it is empty, then meet at a barrier.
func runServeSegment(ctx context.Context, clients []*serveClient, ops []serveOp, out *outcome) *serveSegmentState {
	st := &serveSegmentState{out: out, finished: map[int]finishedJob{}}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				cl.do(ctx, ops[i], st)
			}
		}()
	}
	wg.Wait()
	st.seg.wallSec = sinceSec(t0)
	return st
}

func runServeMix(ctx context.Context, rc runConfig) (*outcome, error) {
	if rc.scale > 1 {
		return nil, errors.New("serve_mix has no reduced size: it needs the built servers")
	}
	// Built before the set-up clock starts: whether the Go build cache is
	// warm must not reach any metric.
	serveBin, gateBin, err := buildServers(ctx, rc.root)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var (
		cluster *serveCluster
		clients []*serveClient
	)
	// Clusters run one after another, so the servers' contribution to the
	// peak is the largest cluster's, not their sum.
	stopCluster := func() {
		if cluster != nil {
			out.childRSSMB = max(out.childRSSMB, cluster.stop())
			cluster = nil
		}
	}
	defer stopCluster() // error paths; the success path stops it below

	// Set-up, repeated: boot both servers, poll health, one warm-up
	// segment on a throwaway outcome.
	for i := 0; i < rc.setups; i++ {
		stopCluster()
		t0 := time.Now()
		if cluster, err = startServeCluster(ctx, rc.root, serveBin, gateBin); err != nil {
			return nil, err
		}
		clients = clients[:0]
		for c := 0; c < serveClients; c++ {
			cl := &serveClient{c: cluster}
			if rc.tr != nil && i == rc.setups-1 {
				cl.lane = rc.tr.newLane()
			}
			clients = append(clients, cl)
		}
		// Warm-up: the first half of a segment (six train jobs and the
		// sweep), so every code path has run once before timing starts.
		warm := &outcome{}
		runServeSegment(ctx, clients, serveSegmentOps(rc.seed, fmt.Sprintf("warm%d", i))[:7], warm)
		if len(warm.faults) > 0 {
			return nil, fmt.Errorf("warm-up segment failed: %v", warm.faults)
		}
		out.setupSec = append(out.setupSec, rc.bootSec+sinceSec(t0))
	}

	defer rc.disarm()
	var admit, dedupe, read []float64
	for s := 0; s < rc.segs; s++ {
		rc.arm(s)
		st := runServeSegment(ctx, clients, serveSegmentOps(rc.seed, fmt.Sprintf("seg%d", s)), out)
		out.segs = append(out.segs, st.seg)
		admit = append(admit, st.admitMs...)
		dedupe = append(dedupe, st.dedupeMs...)
		read = append(read, st.readMs...)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	rc.disarm()
	if rc.tr != nil {
		out.setLayer("fdaserve.admit_ms", median(admit))
		out.setLayer("fdaserve.dedupe_ms", median(dedupe))
		out.setLayer("fdaserve.read_ms", median(read))
		if err := probeServeCluster(ctx, cluster, clients[0], out); err != nil {
			return nil, err
		}
		// The jobs are lenet5s, K=4, batch 32 sessions.
		probe := dist.JobSpec{Model: serveJobModel, Strategy: "LinearFDA", K: serveJobK, Batch: serveJobBatch,
			Seed: deriveSeed(rc.seed, "serve/probe")}.WithDefaults()
		if err := probeLayers(ctx, rc, out, probe); err != nil {
			return nil, fmt.Errorf("serve_mix probes: %w", err)
		}
	}
	stopCluster()
	return out, nil
}

// probeServeCluster reads the serving tier's own view of the run — job
// queue wait and run time from /v1/metrics, rejections, goroutines,
// resident set — and measures what the gateway adds to one GET.
func probeServeCluster(ctx context.Context, c *serveCluster, cl *serveClient, out *outcome) error {
	var direct, proxied []float64
	for i := 0; i < 40; i++ {
		for _, t := range []struct {
			base string
			into *[]float64
		}{{c.serveURL, &direct}, {c.gateURL, &proxied}} {
			got, err := cl.call(ctx, "probe.get", http.MethodGet, t.base+"/v1/experiments", "")
			if err != nil {
				return err
			}
			if got.status != http.StatusOK {
				return fmt.Errorf("GET /v1/experiments: status %d", got.status)
			}
			*t.into = append(*t.into, got.ms)
		}
	}
	out.setLayer("cluster.proxy_overhead_ms", median(proxied)-median(direct))

	got, err := cl.call(ctx, "probe.get", http.MethodGet, c.serveURL+"/v1/metrics", "")
	if err != nil {
		return err
	}
	var view struct {
		Telemetry obs.Snap
		Runtime   map[string]float64
	}
	if err := json.Unmarshal(got.body, &view); err != nil {
		return fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	meanMs := func(name string) float64 {
		var sum float64
		var n uint64
		for _, h := range view.Telemetry.Histograms {
			if h.Name == name {
				sum += h.Sum
				n += h.Count
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n) * 1e3
	}
	out.setLayer("fdaserve.queue_wait_ms", meanMs("fdaserve_job_queue_wait_seconds"))
	out.setLayer("fdaserve.run_ms", meanMs("fdaserve_job_run_seconds"))
	out.setLayer("fdaserve.rejected", float64(view.Telemetry.CounterSum("fdaserve_jobs_rejected_total")))
	out.setLayer("fdaserve.goroutines_end", view.Runtime["go_sched_goroutines"])
	if kb, err := statusKB(c.serve.cmd.Process.Pid, "VmRSS"); err == nil {
		out.setLayer("fdaserve.rss_end_mb", float64(kb)/1024)
	}
	return nil
}
