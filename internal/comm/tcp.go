package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"time"
)

// TCPFabric is the socket backend: one fabric per worker process, each
// owning exactly one global rank, all connected to a Coordinator. A
// collective is one framed round trip — the worker sends its
// contribution, the coordinator sends it the K − 1 other contributions
// in rank order as one bundle, the worker splices its own payload back
// in at its rank, and every worker computes the reduction locally,
// folding the K parts into the destination in the in-process
// reference's association (meanF64s).
// The coordinator therefore does no arithmetic at all: reductions are
// replicated, which is what makes the training math bit-identical to
// the other fabrics regardless of network timing.
//
// Charged bytes follow the CostModel exactly as in-process (every
// process's meter accumulates the cluster totals); the actual framed
// bytes this process moved are reported separately in
// CostReport.WireBytes.
type TCPFabric struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	k     int
	rank  int
	ranks []int
	cost  CostModel
	meter *Meter
	seq   uint32

	// Reusable receive state: the bundle buffer, per-rank payload views
	// and Gather's decoded vectors.
	recvBuf  []byte
	parts    [][]byte
	vecs     [][]float64
	sendBuf  []byte
	lastWire int64
}

// DialFabric connects to a coordinator, performs the rendezvous
// handshake, and returns the fabric positioned before the first
// collective plus the coordinator's job payload (the serialized
// training spec every worker builds its replicated session from).
func DialFabric(ctx context.Context, addr string, cost CostModel) (*TCPFabric, []byte, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: dialing coordinator %s: %w", addr, err)
	}
	f := &TCPFabric{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
		cost: cost,
	}
	// The coordinator answers hellos one connection at a time, so the
	// assignment can be as late as its JoinDeadline; ctx bounds the wait
	// on this side: when it is cancelled or runs out, the connection is
	// closed under the read. The hook is lifted before the first
	// collective.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	job, err := f.handshake()
	if !stop() { // ctx ended first: the connection is closed, whatever the handshake saw
		err = fmt.Errorf("comm: rendezvous with %s: %w", addr, ctx.Err())
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return f, job, nil
}

// handshake sends the hello and reads the rank assignment, returning
// the coordinator's job payload.
func (f *TCPFabric) handshake() ([]byte, error) {
	if err := writeFrame(f.bw, frame{op: opHello, rank: -1}); err != nil {
		return nil, err
	}
	fr, _, err := readFrame(f.br, nil, "")
	if err != nil {
		return nil, fmt.Errorf("comm: waiting for rank assignment: %w", err)
	}
	if fr.op != opAssign || len(fr.payload) < 4 {
		return nil, fmt.Errorf("comm: unexpected handshake frame op=%d", fr.op)
	}
	f.rank = int(fr.rank)
	f.k = int(binary.LittleEndian.Uint32(fr.payload))
	if f.k <= 0 || f.rank < 0 || f.rank >= f.k {
		return nil, fmt.Errorf("comm: invalid assignment rank=%d k=%d", f.rank, f.k)
	}
	f.ranks = []int{f.rank}
	f.meter = NewMeter()
	return append([]byte(nil), fr.payload[4:]...), nil
}

// K implements Fabric.
func (f *TCPFabric) K() int { return f.k }

// Rank returns this process's global rank.
func (f *TCPFabric) Rank() int { return f.rank }

// Ranks implements Fabric.
func (f *TCPFabric) Ranks() []int { return f.ranks }

// Meter implements Fabric.
func (f *TCPFabric) Meter() *Meter { return f.meter }

// Cost implements Fabric.
func (f *TCPFabric) Cost() CostModel { return f.cost }

// Close implements Fabric.
func (f *TCPFabric) Close() error { return f.conn.Close() }

// fail aborts the collective with a transport panic (see FabricError).
func (f *TCPFabric) fail(err error) {
	panic(&FabricError{Err: err})
}

// exchange performs one framed collective round trip: send this rank's
// payload, receive the bundle of the K − 1 others, split it into
// rank-order views and splice payload itself in at this rank.
func (f *TCPFabric) exchange(kind string, payload []byte) [][]byte {
	f.seq++
	if err := writeFrame(f.bw, frame{op: opContrib, rank: int32(f.rank), seq: f.seq, kind: kind, payload: payload}); err != nil {
		f.fail(fmt.Errorf("sending contribution seq %d: %w", f.seq, err))
	}
	fr, buf, err := readFrame(f.br, f.recvBuf, kind)
	f.recvBuf = buf
	if err != nil {
		f.fail(fmt.Errorf("awaiting bundle seq %d: %w", f.seq, err))
	}
	if fr.op != opBundle || fr.seq != f.seq || fr.kind != kind {
		f.fail(fmt.Errorf("protocol desync: got op=%d seq=%d kind=%q, want bundle seq=%d kind=%q",
			fr.op, fr.seq, fr.kind, f.seq, kind))
	}
	parts, err := splitBundle(fr.payload, f.parts)
	if err != nil {
		f.fail(err)
	}
	if len(parts) != f.k-1 {
		f.fail(fmt.Errorf("bundle carries %d parts, want %d", len(parts), f.k-1))
	}
	parts = slices.Insert(parts, f.rank, payload)
	f.parts = parts
	f.lastWire = int64(len(payload)) + int64(len(fr.payload))
	return parts
}

// exchangeVec encodes the local vector, exchanges it and returns the K
// encoded contributions (rank order).
func (f *TCPFabric) exchangeVec(kind string, local [][]float64) [][]byte {
	if len(local) != 1 {
		f.fail(fmt.Errorf("TCPFabric drives 1 rank, got %d local vectors", len(local)))
	}
	f.sendBuf = appendF64s(f.sendBuf[:0], local[0])
	return f.exchange(kind, f.sendBuf)
}

// charge meters one collective over n elements, cluster-total like the
// in-process reference so every process's meter agrees with it.
func (f *TCPFabric) charge(kind string, n int, start time.Time) CostReport {
	per := f.cost.PerWorkerBytes(n, f.k)
	total := per * int64(f.k)
	f.meter.Charge(kind, total)
	return CostReport{
		Elements:  n,
		PerWorker: per,
		Bytes:     total,
		WireBytes: f.lastWire,
		//fda:allow(wallclock, measured socket time is diagnostic CostReport telemetry; never feeds training math)
		Seconds: time.Since(start).Seconds(),
	}
}

// AllReduce implements Fabric.
func (f *TCPFabric) AllReduce(kind string, local [][]float64) CostReport {
	sp := startOp("AllReduce")
	//fda:allow(wallclock, real socket timing on the TCP fabric; diagnostic only)
	start := time.Now()
	parts := f.exchangeVec(kind, local)
	if err := meanF64s(local[0], parts); err != nil {
		f.fail(err)
	}
	rep := f.charge(kind, len(local[0]), start)
	endOp(sp, kind, rep)
	return rep
}

// AllReduceMean implements Fabric.
func (f *TCPFabric) AllReduceMean(kind string, dst []float64, local [][]float64) CostReport {
	sp := startOp("AllReduceMean")
	//fda:allow(wallclock, real socket timing on the TCP fabric; diagnostic only)
	start := time.Now()
	parts := f.exchangeVec(kind, local)
	if err := meanF64s(dst, parts); err != nil {
		f.fail(err)
	}
	rep := f.charge(kind, len(dst), start)
	endOp(sp, kind, rep)
	return rep
}

// Broadcast implements Fabric.
func (f *TCPFabric) Broadcast(kind string, root int, local [][]float64) CostReport {
	if root < 0 || root >= f.k {
		panic(fmt.Sprintf("comm: Broadcast root %d outside cluster of %d", root, f.k))
	}
	sp := startOp("Broadcast")
	//fda:allow(wallclock, real socket timing on the TCP fabric; diagnostic only)
	start := time.Now()
	parts := f.exchangeVec(kind, local)
	if err := decodeF64s(local[0], parts[root]); err != nil {
		f.fail(fmt.Errorf("rank %d contribution: %w", root, err))
	}
	n := len(local[0])
	payload := int64(n) * int64(f.cost.BytesPerParam)
	total := payload * int64(f.k-1)
	f.meter.Charge(kind, total)
	rep := CostReport{Elements: n, PerWorker: payload, Bytes: total,
		//fda:allow(wallclock, measured socket time is diagnostic CostReport telemetry; never feeds training math)
		WireBytes: f.lastWire, Seconds: time.Since(start).Seconds()}
	endOp(sp, kind, rep)
	return rep
}

// Gather implements Fabric (uncharged measurement exchange).
func (f *TCPFabric) Gather(local [][]float64) [][]float64 {
	parts := f.exchangeVec("gather", local)
	n := len(local[0])
	if cap(f.vecs) < f.k {
		f.vecs = make([][]float64, f.k)
	}
	f.vecs = f.vecs[:f.k]
	for r, p := range parts {
		if cap(f.vecs[r]) < n {
			f.vecs[r] = make([]float64, n)
		}
		f.vecs[r] = f.vecs[r][:n]
		if err := decodeF64s(f.vecs[r], p); err != nil {
			f.fail(fmt.Errorf("rank %d contribution: %w", r, err))
		}
	}
	return f.vecs
}

// ExchangeBytes implements Fabric: opaque payload exchange, uncharged.
// The returned views are valid until the next collective; this rank's is
// local[0] itself, the others view the received bundle.
func (f *TCPFabric) ExchangeBytes(kind string, local [][]byte) [][]byte {
	if len(local) != 1 {
		f.fail(fmt.Errorf("TCPFabric drives 1 rank, got %d local payloads", len(local)))
	}
	sp := startOp("ExchangeBytes")
	out := f.exchange(kind, local[0])
	if sp.Active() {
		sp.EndArgs("kind", kind, "wire_bytes", f.lastWire)
	}
	return out
}

// SendResult delivers this worker's final result payload to the
// coordinator and waits for the acknowledgement, completing the run.
func (f *TCPFabric) SendResult(result []byte) error {
	f.seq++
	if err := writeFrame(f.bw, frame{op: opResult, rank: int32(f.rank), seq: f.seq, kind: "result", payload: result}); err != nil {
		return err
	}
	fr, buf, err := readFrame(f.br, f.recvBuf, "")
	f.recvBuf = buf
	if err != nil {
		return err
	}
	if fr.op != opDone {
		return fmt.Errorf("comm: expected done acknowledgement, got op=%d", fr.op)
	}
	return nil
}
