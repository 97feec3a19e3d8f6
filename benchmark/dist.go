package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

const (
	// distSegSteps is one segment.
	distSegSteps = 25
	distRanks    = 2
)

// distWarmSteps is the TCP prefix every set-up runs, sized per strategy
// so that set-up lasts about a second either way (a Synchronous step
// costs about twice a LinearFDA step). The first set-up's model after
// it is compared with an in-process run of the same spec.
var distWarmSteps = map[string]int{"Synchronous": 250, "LinearFDA": 500}

func distSpec(seed uint64, strategy string, steps int) dist.JobSpec {
	return dist.JobSpec{
		Model: "convnexts", Strategy: strategy,
		K: distRanks, Batch: 8, Steps: steps,
		// Evaluate at the end only: the timed steps are then pure
		// local-step + strategy + fabric work on every rank.
		EvalEvery: steps,
		Het:       "iid", Seed: deriveSeed(seed, "dist"),
	}.WithDefaults()
}

// distCluster is a coordinator on an ephemeral loopback port plus one
// goroutine per rank, each driving its own session over its own
// TCPFabric — the replicated layout of `fdarun -worker`, in one
// process. The ranks advance in lock step on commands from the
// benchmark goroutine.
type distCluster struct {
	coord  *comm.Coordinator
	cancel context.CancelFunc

	ranks []*distRank // indexed by global rank
	wg    sync.WaitGroup

	serveDone chan struct{}
	results   [][]byte
	serveErr  error
}

type distRank struct {
	fabric *comm.TCPFabric
	b      *builtSession
	st     *stepper
	cmds   chan func() error
	errs   chan error
}

// startDistCluster listens, dials both ranks, builds their sessions
// (dataset synthesis included, per rank, as separate processes would)
// and returns with every rank positioned before step 1. tr decorates
// rank 0 only.
func startDistCluster(ctx context.Context, spec dist.JobSpec, tr *tracer) (*distCluster, error) {
	coord, err := comm.ListenCoordinator("127.0.0.1:0", distRanks)
	if err != nil {
		return nil, err
	}
	job, err := json.Marshal(spec)
	if err != nil {
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &distCluster{coord: coord, cancel: cancel, ranks: make([]*distRank, distRanks), serveDone: make(chan struct{})}
	go func() {
		defer close(c.serveDone)
		c.results, c.serveErr = coord.Serve(ctx, job)
	}()

	type joined struct {
		r   *distRank
		err error
	}
	ch := make(chan joined, distRanks)
	for i := 0; i < distRanks; i++ {
		go func() {
			r, err := joinDistRank(ctx, coord.Addr(), tr)
			ch <- joined{r, err}
		}()
	}
	var firstErr error
	for i := 0; i < distRanks; i++ {
		j := <-ch
		if j.err != nil {
			firstErr = errors.Join(firstErr, j.err)
			continue
		}
		c.ranks[j.r.fabric.Rank()] = j.r
	}
	if firstErr != nil {
		c.close()
		return nil, firstErr
	}
	for _, r := range c.ranks {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			r.loop()
		}()
	}
	return c, nil
}

// joinDistRank is one worker's start-up: dial, receive rank and job,
// build the replicated session for that rank.
func joinDistRank(ctx context.Context, addr string, tr *tracer) (*distRank, error) {
	fabric, payload, err := comm.DialFabric(ctx, addr, comm.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	var spec dist.JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		fabric.Close()
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	if fabric.Rank() != 0 {
		tr = nil
	}
	b, err := buildSession(ctx, spec.WithDefaults(), fabric, 1, tr)
	if err != nil {
		fabric.Close()
		return nil, err
	}
	return &distRank{
		fabric: fabric, b: b, st: newStepper(b.sess, tr),
		cmds: make(chan func() error), errs: make(chan error),
	}, nil
}

// loop executes commands until the command channel closes. A fabric
// transport failure surfaces as a panic carrying *comm.FabricError
// (the fabric's contract); it is reported as that command's error.
func (r *distRank) loop() {
	for cmd := range r.cmds {
		r.errs <- func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					var fe *comm.FabricError
					if e, ok := p.(error); ok && errors.As(e, &fe) {
						err = fe
						return
					}
					panic(p)
				}
			}()
			return cmd()
		}()
	}
}

// each runs fn on every rank concurrently — collectives need all ranks
// inside the same call — and joins their errors.
func (c *distCluster) each(fn func(rank int, r *distRank) error) error {
	for i, r := range c.ranks {
		r.cmds <- func() error { return fn(i, r) }
	}
	var err error
	for _, r := range c.ranks {
		err = errors.Join(err, <-r.errs)
	}
	return err
}

// steps advances every rank n steps and returns rank 0's per-step
// latencies and wall time.
func (c *distCluster) steps(n int) (lat []float64, wallSec float64, err error) {
	err = c.each(func(rank int, r *distRank) error {
		t0 := time.Now()
		l, err := r.st.steps(n)
		if rank == 0 {
			lat, wallSec = l, sinceSec(t0)
		}
		return err
	})
	return lat, wallSec, err
}

// globalModels gathers the averaged model as each rank sees it.
func (c *distCluster) globalModels() ([][]float64, error) {
	out := make([][]float64, len(c.ranks))
	err := c.each(func(rank int, r *distRank) error {
		out[rank] = make([]float64, r.b.sess.NumParams())
		r.b.sess.GlobalModel(out[rank])
		return nil
	})
	return out, err
}

// finish runs every rank to the end of its step budget, reports each
// rank's Result to the coordinator and returns the payloads the
// coordinator collected, in rank order.
func (c *distCluster) finish() ([][]byte, error) {
	err := c.each(func(_ int, r *distRank) error {
		res, err := r.b.sess.Run()
		if err != nil {
			return err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return r.fabric.SendResult(body)
	})
	if err != nil {
		return nil, err
	}
	<-c.serveDone
	return c.results, c.serveErr
}

// close tears the cluster down on every path: rank goroutines end,
// connections and the listener close, the relay goroutine returns.
func (c *distCluster) close() {
	for _, r := range c.ranks {
		if r != nil {
			close(r.cmds)
		}
	}
	c.wg.Wait()
	for _, r := range c.ranks {
		if r != nil {
			r.fabric.Close()
		}
	}
	c.cancel()
	c.coord.Close()
	<-c.serveDone
}

func runDist(ctx context.Context, rc runConfig, strategy string) (*outcome, error) {
	out := &outcome{}
	warm := rc.scaled(distWarmSteps[strategy])
	segSteps := rc.scaled(distSegSteps)
	// One step past the last segment: the finishing step carries the
	// only evaluation and is not timed.
	spec := distSpec(rc.seed, strategy, warm+rc.segs*segSteps+1)

	var (
		c        *distCluster
		tcpModel []float64 // rank 0's global model after the first warm-up
		tcpBytes int64
	)
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for i := 0; i < rc.setups; i++ {
		if c != nil {
			c.close()
			c = nil
		}
		settle()
		t0 := time.Now()
		tr := rc.tr
		if i < rc.setups-1 {
			tr = nil
		}
		var err error
		if c, err = startDistCluster(ctx, spec, tr); err != nil {
			return nil, err
		}
		if _, _, err := c.steps(warm); err != nil {
			return nil, err
		}
		out.setupSec = append(out.setupSec, rc.bootSec+sinceSec(t0))
		if i == 0 {
			models, err := c.globalModels()
			if err != nil {
				return nil, err
			}
			if !bitsEqual(models[0], models[1]) {
				out.faultf("dist: ranks hold different global models after %d steps", warm)
			}
			tcpModel, tcpBytes = models[0], c.ranks[0].fabric.Meter().TotalBytes()
		}
	}

	meter := c.ranks[0].fabric.Meter()
	bytes0 := meter.TotalBytes()
	perSeg := int64(segSteps * spec.Batch * spec.K)
	for s := 0; s < rc.segs; s++ {
		rc.arm(s)
		lat, wall, err := c.steps(segSteps)
		if err != nil {
			return nil, err
		}
		out.segs = append(out.segs, segment{wallSec: wall, samples: perSeg, opMs: lat})
		out.attempted += len(lat)
		out.samples += perSeg
	}
	rc.disarm()
	out.commBytes = meter.TotalBytes() - bytes0

	// Correctness: every rank finishes with the same Result, and the TCP
	// prefix equals the in-process run of the same spec bit for bit.
	results, err := c.finish()
	if err != nil {
		return nil, err
	}
	traced := c.ranks[0].b // rank 0's session handles outlive the cluster
	var res core.Result
	if err := json.Unmarshal(results[0], &res); err != nil {
		return nil, err
	}
	for r := 1; r < len(results); r++ {
		if !bytes.Equal(results[0], results[r]) {
			out.faultf("dist: rank %d finished with a different Result than rank 0", r)
		}
	}
	if res.Steps != spec.Steps {
		out.faultf("dist: run ended at step %d, want %d", res.Steps, spec.Steps)
	}
	c.close()
	c = nil
	settle()
	ref, err := buildSession(ctx, spec, nil, core.AutoParallelism, nil)
	if err != nil {
		return nil, err
	}
	if _, err := newStepper(ref.sess, nil).steps(warm); err != nil {
		return nil, err
	}
	refModel := make([]float64, ref.sess.NumParams())
	ref.sess.GlobalModel(refModel)
	if !bitsEqual(refModel, tcpModel) {
		out.faultf("dist: %d-step TCP prefix differs from the in-process run of the same spec", warm)
	}
	if b := ref.fabric.Meter().TotalBytes(); b != tcpBytes {
		out.faultf("dist: TCP prefix charged %d bytes, in-process run %d", tcpBytes, b)
	}

	if rc.tr != nil {
		fillTrainingLayers(out, rc.tr, traced, rc.recordedSegs()*segSteps)
		if err := probeLayers(ctx, rc, out, spec); err != nil {
			return nil, fmt.Errorf("dist probes: %w", err)
		}
		// One rank per session and no worker pool: the step is the sum
		// of its parts, so the probes and spans must add up.
		parts := out.layer["nn.lossgrad_ms"] + out.layer["opt.step_ms"] + out.layer["core.strategy_ms"]
		if step := out.layer["core.step_ms"]; rc.scale == 1 && (parts < 0.85*step || parts > 1.15*step) {
			out.faultf("dist: lossgrad+opt+strategy = %.3f ms does not account for the %.3f ms step within 15%%", parts, step)
		}
	}
	return out, nil
}
