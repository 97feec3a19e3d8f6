package comm

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Coordinator is the rendezvous point of a TCP-fabric cluster. It
// accepts exactly K worker connections, assigns global ranks in
// connection order, and once all K have said hello sends every worker
// its assignment: its rank, the table of the K workers' peer listen
// addresses and the job payload. The workers then connect to one another
// and exchange their collectives directly (TCPFabric); the coordinator
// moves no collective byte and performs no arithmetic, so it cannot
// perturb training math. It stays connected to every worker for failure
// detection and result collection.
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
	// (fdavet wallclock); the run after the rendezvous has no deadline.
	JoinDeadline time.Time

	mu    sync.Mutex
	conns []*coordConn // admitted by a Serve in progress
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
// the connections Serve has admitted, so a Serve blocked reading one
// returns with an error, and every worker's fabric, which watches its
// coordinator connection, fails its next collective.
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

// coordConn is one worker connection: its buffered reader and its frame
// writer.
type coordConn struct {
	raw net.Conn
	br  *bufio.Reader
	fw  frameWriter
}

// Serve runs one complete distributed session: rendezvous, then result
// collection. job is the opaque payload delivered to every worker at
// assignment (the serialized training spec). Serve blocks until all
// workers finished, one failed (the error names the rank at fault, see
// fault) or the context is cancelled (which closes every connection,
// failing the workers' collectives with transport errors).
func (c *Coordinator) Serve(ctx context.Context, job []byte) (results [][]byte, err error) {
	defer c.closeConns()

	// Cancellation support: closing the listener unblocks Accept; closing
	// the connections unblocks reads and tells the workers.
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()

	// Rendezvous: accept K workers, assign ranks in connection order. A
	// zero JoinDeadline sets no deadline.
	if err := c.ln.SetDeadline(c.JoinDeadline); err != nil {
		return nil, fmt.Errorf("comm: coordinator join deadline: %w", err)
	}
	conns := make([]*coordConn, 0, c.k)
	addrs := make([]string, c.k)
	for rank := 0; rank < c.k; rank++ {
		raw, aerr := c.ln.Accept()
		if aerr != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("comm: coordinator accept (have %d of %d workers): %w", rank, c.k, aerr)
		}
		cc := &coordConn{raw: raw, br: bufio.NewReaderSize(raw, 1<<16), fw: frameWriter{w: raw}}
		c.mu.Lock() // Close and the cancellation above close c.conns concurrently
		c.conns = append(c.conns, cc)
		c.mu.Unlock()
		// SetReadDeadline fails only on a closed connection, which the
		// read after it reports.
		_ = raw.SetReadDeadline(c.JoinDeadline)
		fr, _, rerr := readFrame(cc.br, nil, "")
		_ = raw.SetReadDeadline(time.Time{})
		if rerr != nil {
			return nil, fmt.Errorf("comm: worker %d handshake (have %d of %d workers): %w", rank, rank, c.k, rerr)
		}
		if fr.op != opHello || len(fr.payload) == 0 || len(fr.payload) > 255 {
			return nil, fmt.Errorf("comm: worker %d sent op=%d with a %d-byte address, want a hello", rank, fr.op, len(fr.payload))
		}
		addrs[rank] = string(fr.payload)
		conns = append(conns, cc)
	}
	_ = c.ln.SetDeadline(time.Time{}) // nothing accepts on it again
	table := appendAssignment(nil, addrs, job)
	for rank, cc := range conns {
		if werr := cc.fw.write(frame{op: opAssign, rank: int32(rank), payload: table}); werr != nil {
			return nil, fmt.Errorf("comm: assigning rank %d: %w", rank, werr)
		}
	}

	// Result collection. Each connection yields one final frame: the
	// worker's result, its report of a failed collective, or the end of
	// the connection. They are read in rank order; a failure is final.
	results = make([][]byte, c.k)
	for rank, cc := range conns {
		fr, _, rerr := readFrame(cc.br, nil, "result")
		if rerr == nil && fr.op == opResult {
			results[rank] = fr.payload
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		ferr := fault(conns, rank, fr, rerr)
		c.broadcastError(conns, ferr.Error())
		return nil, ferr
	}
	for _, cc := range conns {
		if werr := cc.fw.write(frame{op: opDone}); werr != nil {
			return nil, fmt.Errorf("comm: acknowledging results: %w", werr)
		}
	}
	return results, nil
}

// fault names the rank a failure is due to, given the final frame fr (and
// read error err) of rank's connection, every lower rank having sent its
// result. A connection that ends or breaks is its worker's death. A
// worker whose collective fails reports the peer it holds responsible (a
// remoteError whose frame's rank field is that peer) before it gives up,
// and a survivor's report is not the survivor's fault: a peer's death
// takes its coordinator connection down too, so the report is followed
// to the blamed rank's own connection, and on through any report found
// there, until a connection ends without one (that rank died), the
// blamed worker sent its result or blames itself, or the chain reaches a
// rank already read; the last rank blamed is named then.
func fault(conns []*coordConn, rank int, fr frame, err error) error {
	read := make([]bool, len(conns))
	for r := range rank + 1 {
		read[r] = true
	}
	for {
		if err == nil {
			return fmt.Errorf("comm: worker %d sent op=%d, want its result", rank, fr.op)
		}
		if _, report := err.(remoteError); !report {
			return fmt.Errorf("comm: worker %d: %w", rank, inFrame(err))
		}
		to := int(fr.rank)
		if to < 0 || to >= len(conns) || to == rank {
			return fmt.Errorf("comm: worker %d failed: %w", rank, err)
		}
		if read[to] {
			return fmt.Errorf("comm: worker %d failed, reported by worker %d: %w", to, rank, err)
		}
		next, _, nerr := readFrame(conns[to].br, nil, "result")
		read[to] = true
		if nerr == nil {
			return fmt.Errorf("comm: worker %d failed, reported by worker %d: %w", to, rank, err)
		}
		rank, fr, err = to, next, nerr
	}
}

// broadcastError best-effort notifies every worker before aborting.
func (c *Coordinator) broadcastError(conns []*coordConn, msg string) {
	for _, cc := range conns {
		_ = cc.fw.write(frame{op: opError, rank: -1, payload: []byte(msg)})
	}
}
