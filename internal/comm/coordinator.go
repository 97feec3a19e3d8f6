package comm

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Coordinator is the rendezvous point and relay of a TCP-fabric
// cluster. It accepts exactly K worker connections, assigns global
// ranks in connection order, hands every worker the job payload, and
// then relays collectives: each round it reads one contribution frame
// per worker, verifies they agree on (sequence, kind) and writes every
// worker the K − 1 other payloads in rank order as one bundle frame,
// straight from the buffers they were received into (bundleWriter); a
// worker's own contribution is never echoed back to it. The
// coordinator performs no arithmetic — reductions are replicated on the
// workers — so it cannot perturb training math, only move bytes.
//
// The run ends when every worker sends its result frame; Serve returns
// the K result payloads in rank order.
type Coordinator struct {
	ln *net.TCPListener
	k  int

	// JoinDeadline, when set before Serve, bounds the rendezvous: a
	// worker that has not dialled, or has dialled and not said hello, by
	// then fails Serve with a timeout instead of parking it forever. It
	// is an instant, not a duration, because this package reads no clock
	// (fdavet wallclock); the relay loop runs without deadlines.
	JoinDeadline time.Time

	mu        sync.Mutex
	conns     []*coordConn // admitted by a Serve in progress
	rounds    int64
	wireBytes int64
}

// ListenCoordinator starts a coordinator for k workers on addr
// (host:port; ":0" picks an ephemeral port — see Addr).
func ListenCoordinator(addr string, k int) (*Coordinator, error) {
	if k <= 0 {
		return nil, fmt.Errorf("comm: coordinator for %d workers", k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: coordinator listen %s: %w", addr, err)
	}
	return &Coordinator{ln: ln.(*net.TCPListener), k: k}, nil
}

// Addr returns the coordinator's bound address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops listening and aborts a Serve in progress: it also closes
// the connections Serve has admitted, so a relay blocked reading or
// writing one returns with an error.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.closeConns()
	return err
}

func (c *Coordinator) closeConns() {
	c.mu.Lock()
	for _, cc := range c.conns {
		cc.raw.Close()
	}
	c.conns = nil
	c.mu.Unlock()
}

// Stats reports relay totals: completed collective rounds and payload
// bytes moved through the coordinator (both directions): each round,
// every contribution read plus every bundle payload written.
func (c *Coordinator) Stats() (rounds, wireBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds, c.wireBytes
}

func (c *Coordinator) addStats(rounds, bytes int64) {
	c.mu.Lock()
	c.rounds += rounds
	c.wireBytes += bytes
	c.mu.Unlock()
}

// conn bundles one worker connection's buffered streams.
type coordConn struct {
	raw net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

// Serve runs one complete distributed session: rendezvous, relay,
// result collection. job is the opaque payload delivered to every
// worker at assignment (the serialized training spec). Serve blocks
// until all workers finished or the context is cancelled (which closes
// every connection, unblocking the workers with transport errors).
func (c *Coordinator) Serve(ctx context.Context, job []byte) (results [][]byte, err error) {
	defer c.closeConns()

	// Cancellation support: closing the listener unblocks Accept; closing
	// the connections unblocks relay reads and writes.
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()

	// Rendezvous: accept K workers, assign ranks in connection order. A
	// zero JoinDeadline sets no deadline.
	if err := c.ln.SetDeadline(c.JoinDeadline); err != nil {
		return nil, fmt.Errorf("comm: coordinator join deadline: %w", err)
	}
	conns := make([]*coordConn, 0, c.k)
	for rank := 0; rank < c.k; rank++ {
		raw, aerr := c.ln.Accept()
		if aerr != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("comm: coordinator accept (have %d of %d workers): %w", rank, c.k, aerr)
		}
		cc := &coordConn{raw: raw, br: bufio.NewReaderSize(raw, 1<<16), bw: bufio.NewWriterSize(raw, 1<<16)}
		c.mu.Lock() // Close and the cancellation above close c.conns concurrently
		c.conns = append(c.conns, cc)
		c.mu.Unlock()
		// SetReadDeadline fails only on a closed connection, which the
		// read after it reports.
		_ = raw.SetReadDeadline(c.JoinDeadline)
		fr, buf, rerr := readFrame(cc.br, nil, "")
		_ = raw.SetReadDeadline(time.Time{})
		cc.buf = buf
		if rerr != nil {
			return nil, fmt.Errorf("comm: worker %d handshake (have %d of %d workers): %w", rank, rank, c.k, rerr)
		}
		if fr.op != opHello {
			return nil, fmt.Errorf("comm: worker %d sent op=%d, want hello", rank, fr.op)
		}
		assign := make([]byte, 0, 4+len(job))
		assign = append(assign, byte(c.k), byte(c.k>>8), byte(c.k>>16), byte(c.k>>24))
		assign = append(assign, job...)
		if werr := writeFrame(cc.bw, frame{op: opAssign, rank: int32(rank), payload: assign}); werr != nil {
			return nil, fmt.Errorf("comm: assigning rank %d: %w", rank, werr)
		}
		conns = append(conns, cc)
	}
	_ = c.ln.SetDeadline(time.Time{}) // nothing accepts on it again

	// Relay loop. Workers run a replicated deterministic control flow, so
	// each round every connection yields either a contribution for the
	// same (seq, kind) or — on the final round — a result frame.
	results = make([][]byte, c.k)
	parts := make([][]byte, c.k)
	crcs := make([]uint32, c.k)
	var bundle bundleWriter
	var kind string // outlives the round: readFrame reuses it while the kind repeats
	for {
		var seq uint32
		var op byte
		var roundBytes int64
		for rank, cc := range conns {
			fr, buf, rerr := readFrame(cc.br, cc.buf, kind)
			cc.buf = buf
			if rerr != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				c.broadcastError(conns, fmt.Sprintf("worker %d failed: %v", rank, rerr))
				return nil, fmt.Errorf("comm: reading worker %d: %w", rank, rerr)
			}
			if rank == 0 {
				op, seq, kind = fr.op, fr.seq, fr.kind
			} else if fr.op != op || fr.seq != seq || (op == opContrib && fr.kind != kind) {
				c.broadcastError(conns, "cluster desynchronized")
				return nil, fmt.Errorf("comm: cluster desync: worker %d sent op=%d seq=%d kind=%q, worker 0 sent op=%d seq=%d kind=%q",
					rank, fr.op, fr.seq, fr.kind, op, seq, kind)
			}
			switch fr.op {
			case opContrib:
				// The frame's payload view lives in cc.buf, which the next
				// readFrame on this conn would clobber — but each conn is
				// read once per round, so the views stay valid until the
				// bundle is written below.
				parts[rank], crcs[rank] = fr.payload, fr.crc
				roundBytes += int64(len(fr.payload))
			case opResult:
				results[rank] = append([]byte(nil), fr.payload...)
			default:
				c.broadcastError(conns, "unexpected frame")
				return nil, fmt.Errorf("comm: worker %d sent unexpected op=%d", rank, fr.op)
			}
		}
		switch op {
		case opResult:
			for _, cc := range conns {
				if werr := writeFrame(cc.bw, frame{op: opDone, seq: seq}); werr != nil {
					return nil, fmt.Errorf("comm: acknowledging results: %w", werr)
				}
			}
			return results, nil
		case opContrib:
			for rank, cc := range conns {
				if werr := bundle.write(cc.raw, frame{op: opBundle, rank: int32(rank), seq: seq, kind: kind}, parts, crcs, rank); werr != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					return nil, fmt.Errorf("comm: broadcasting bundle to worker %d: %w", rank, werr)
				}
			}
			// Worker r's bundle is 4 + 4(K−1) + roundBytes − len(parts[r]).
			bundles := int64(c.k)*(4+4*int64(c.k-1)) + int64(c.k-1)*roundBytes
			c.addStats(1, roundBytes+bundles)
		}
	}
}

// broadcastError best-effort notifies every worker before aborting.
func (c *Coordinator) broadcastError(conns []*coordConn, msg string) {
	for _, cc := range conns {
		_ = writeFrame(cc.bw, frame{op: opError, payload: []byte(msg)})
	}
}
