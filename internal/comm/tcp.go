package comm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/tensor"
)

// TCPFabric is the socket backend: one fabric per worker process, each
// owning exactly one global rank. It reaches the coordinator for the
// rendezvous and the result, and every other worker over a direct peer
// connection (a full mesh: rank i dials every rank j > i). A collective
// hands this rank's contribution — the caller's vector's own memory
// where tensor.ViewLE gives it, an encoded copy elsewhere — to one
// long-lived writer goroutine per peer connection (a contribution of a
// few KiB it writes itself, see directWriteMax), reads the K − 1 peer
// frames in rank order on the calling goroutine, and folds the K parts
// into the destination in the in-process reference's association
// (meanF64s).
// Every worker computes every reduction locally from the same bytes:
// reductions are replicated, which is what makes the training math
// bit-identical to the other fabrics regardless of network timing.
//
// A second goroutine watches the coordinator connection: when the
// coordinator reports a failure or goes away, it closes the peer
// connections, so a collective in flight, or the next one, fails with
// *FabricError. Close stops both kinds of goroutine.
//
// Charged bytes follow the CostModel exactly as in-process (every
// process's meter accumulates the cluster totals); the payload bytes
// this process moved are reported separately in CostReport.WireBytes and
// summed by MovedBytes.
type TCPFabric struct {
	coord net.Conn
	cbr   *bufio.Reader // the rendezvous, then the watcher alone reads it
	cfw   frameWriter   // the goroutine driving the fabric alone writes it

	k     int
	rank  int
	ranks []int
	cost  CostModel
	meter *Meter
	seq   uint32
	peers []*peer // by rank; nil at this rank

	// watched closes when the coordinator connection has ended; watchErr,
	// written before, is why (nil for the run's acknowledgement).
	watched  chan struct{}
	watchErr error
	stop     chan struct{} // closed by Close: the writers return
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex // guards closers and closed against Close and a cancelled rendezvous
	closers []io.Closer
	closed  bool

	// Reusable collective state: per-rank payload views, Gather's
	// decoded vectors and, in builds without tensor.ViewLE, the encoded
	// contribution.
	parts    [][]byte
	vecs     [][]float64
	sendBuf  []byte
	lastWire int64
	moved    int64
}

// peer is one peer connection and its writer goroutine's channels.
type peer struct {
	conn net.Conn
	br   *bufio.Reader
	fw   frameWriter // the writer goroutine's
	buf  []byte      // receive buffer, reused across collectives
	send chan frame  // the frame to write; read by the writer goroutine
	sent chan error  // the write's outcome, one per frame sent
	busy bool        // a frame is with the writer and its outcome unread
}

// DialFabric connects to a coordinator, performs the rendezvous — the
// hello, the assignment, then a peer connection to every other worker —
// and returns the fabric positioned before the first collective plus the
// coordinator's job payload (the serialized training spec every worker
// builds its replicated session from). It returns once all K − 1 peer
// connections are up.
//
// The worker listens for its lower-ranked peers on an ephemeral port at
// the IP of its end of the coordinator connection, so every worker must
// be reachable from the others at the address it reaches the
// coordinator from.
func DialFabric(ctx context.Context, addr string, cost CostModel) (*TCPFabric, []byte, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: dialing coordinator %s: %w", addr, err)
	}
	f := &TCPFabric{
		coord:   conn,
		cbr:     bufio.NewReaderSize(conn, 1<<16),
		cfw:     frameWriter{w: conn},
		cost:    cost,
		watched: make(chan struct{}),
		stop:    make(chan struct{}),
		closers: []io.Closer{conn},
	}
	// The coordinator assigns ranks once all K workers have said hello, so
	// the assignment can be as late as its JoinDeadline, and peers may be
	// later still; ctx bounds the wait on this side: when it is cancelled
	// or runs out, every connection and the listener are closed under the
	// rendezvous. The hook is lifted before the first collective.
	stop := context.AfterFunc(ctx, func() { f.closeAll() })
	job, err := f.rendezvous(ctx)
	if !stop() { // ctx ended first: the connections are closed, whatever the rendezvous saw
		err = fmt.Errorf("comm: rendezvous with %s: %w", addr, ctx.Err())
	}
	if err != nil {
		f.closeAll()
		return nil, nil, err
	}
	f.wg.Add(f.k) // K − 1 writers and the watcher
	for _, p := range f.peers {
		if p != nil {
			go p.write(f.stop, &f.wg)
		}
	}
	go f.watch()
	return f, job, nil
}

// track registers c to be closed with the fabric; it reports false, and
// closes c, when the fabric is already closed.
func (f *TCPFabric) track(c io.Closer) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		c.Close()
		return false
	}
	f.closers = append(f.closers, c)
	return true
}

// closeAll closes the coordinator connection, the peer connections and,
// during the rendezvous, the listener; it returns the coordinator
// connection's Close error.
func (f *TCPFabric) closeAll() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var err error
	for i, c := range f.closers {
		if cerr := c.Close(); i == 0 {
			err = cerr
		}
	}
	f.closers = f.closers[:0]
	return err
}

// closePeers closes the peer connections, unblocking every read and
// write on them; the fabric is unusable afterwards.
func (f *TCPFabric) closePeers() {
	for _, p := range f.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// errRendezvousClosed reports a rendezvous whose connections were closed
// under it: the caller's context ended.
var errRendezvousClosed = errors.New("comm: rendezvous aborted")

// rendezvous sends the hello, reads the assignment, and connects this
// rank to every other: it dials each higher rank, accepts each lower one
// on its listener — refusing any connection whose peer hello is not
// another rank of this cluster that has not connected yet — and reads
// the higher ranks' replies. It returns the coordinator's job payload.
func (f *TCPFabric) rendezvous(ctx context.Context) ([]byte, error) {
	local := f.coord.LocalAddr().(*net.TCPAddr)
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: local.IP, Zone: local.Zone})
	if err != nil {
		return nil, fmt.Errorf("comm: peer listener: %w", err)
	}
	defer ln.Close()
	if !f.track(ln) {
		return nil, errRendezvousClosed
	}
	if err := f.cfw.write(frame{op: opHello, rank: -1, payload: []byte(ln.Addr().String())}); err != nil {
		return nil, fmt.Errorf("comm: hello: %w", err)
	}
	fr, _, err := readFrame(f.cbr, nil, "")
	if err != nil {
		return nil, fmt.Errorf("comm: waiting for rank assignment: %w", err)
	}
	if fr.op != opAssign {
		return nil, fmt.Errorf("comm: unexpected handshake frame op=%d", fr.op)
	}
	addrs, job, err := parseAssignment(fr.payload)
	if err != nil {
		return nil, err
	}
	f.k, f.rank = len(addrs), int(fr.rank)
	if f.rank < 0 || f.rank >= f.k {
		return nil, fmt.Errorf("comm: invalid assignment rank=%d k=%d", f.rank, f.k)
	}
	f.ranks = []int{f.rank}
	f.meter = NewMeter()
	f.peers = make([]*peer, f.k)
	hello := peerHello(f.rank, f.k)

	var d net.Dialer
	for j := f.rank + 1; j < f.k; j++ {
		conn, err := d.DialContext(ctx, "tcp", addrs[j])
		if err != nil {
			return nil, fmt.Errorf("comm: dialing rank %d at %s: %w", j, addrs[j], err)
		}
		p := f.addPeer(conn)
		if p == nil {
			return nil, errRendezvousClosed
		}
		f.peers[j] = p
		if err := p.fw.write(hello); err != nil {
			return nil, fmt.Errorf("comm: peer hello to rank %d: %w", j, err)
		}
	}
	for need := f.rank; need > 0; {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("comm: accepting peers (%d of %d still to come): %w", need, f.rank, err)
		}
		p := f.addPeer(conn)
		if p == nil {
			return nil, errRendezvousClosed
		}
		fr, _, err := readFrame(p.br, nil, "")
		j := -1
		if err == nil {
			j, err = parsePeerHello(fr, f.k)
		}
		if err != nil || j >= f.rank || f.peers[j] != nil {
			conn.Close() // a stranger: refused, the rendezvous goes on
			continue
		}
		f.peers[j] = p
		if err := p.fw.write(hello); err != nil {
			return nil, fmt.Errorf("comm: peer hello to rank %d: %w", j, err)
		}
		need--
	}
	for j := f.rank + 1; j < f.k; j++ {
		p := f.peers[j]
		fr, _, err := readFrame(p.br, nil, "")
		if err != nil {
			return nil, fmt.Errorf("comm: awaiting rank %d's peer hello: %w", j, err)
		}
		if got, err := parsePeerHello(fr, f.k); err != nil || got != j {
			return nil, fmt.Errorf("comm: rank %d's address answered as rank %d: %v", j, got, err)
		}
	}
	return job, nil
}

// addPeer sets up one peer connection and registers it to be closed with
// the fabric; nil when the fabric is already closed.
func (f *TCPFabric) addPeer(conn net.Conn) *peer {
	if !f.track(conn) {
		return nil
	}
	p := &peer{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		fw:   frameWriter{w: conn},
		send: make(chan frame),
		sent: make(chan error, 1), // the writer never waits on its answer
	}
	return p
}

// write is a peer connection's writer goroutine: it writes each frame it
// is handed and answers with the outcome, until stop closes.
func (p *peer) write(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fr := <-p.send:
			p.sent <- p.fw.write(fr)
		case <-stop:
			return
		}
	}
}

// watch reads the coordinator connection for the run's acknowledgement.
// Anything else — a failure the coordinator broadcasts, its end or a
// broken connection — closes the peer connections, so no collective
// waits on a cluster that is gone.
func (f *TCPFabric) watch() {
	defer f.wg.Done()
	fr, _, err := readFrame(f.cbr, nil, "")
	if err == nil && fr.op != opDone {
		err = fmt.Errorf("comm: coordinator sent op=%d mid-run", fr.op)
	}
	if err != nil {
		f.watchErr = fmt.Errorf("coordinator connection: %w", inFrame(err))
	}
	// Closed before the peers are, so a collective those closes fail finds
	// the cause.
	close(f.watched)
	if err != nil {
		f.closePeers()
	}
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

// MovedBytes returns the payload bytes this fabric's collectives have
// sent and received so far: (K − 1)·part out and (K − 1)·part in per
// collective of equal parts.
func (f *TCPFabric) MovedBytes() int64 { return f.moved }

// Close implements Fabric: it closes every connection and returns once
// the fabric's goroutines have.
func (f *TCPFabric) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	err := f.closeAll()
	f.wg.Wait()
	return err
}

// fail aborts the collective with a transport panic (see FabricError)
// after closing the peer connections, so the fabric's own writes end and
// its peers fail too, and waiting out the writes in flight. Unless the
// coordinator is gone already, it first reports err to the coordinator,
// blaming rank blame — the peer whose frame or connection failed, or
// this rank itself.
func (f *TCPFabric) fail(blame int, err error) {
	f.closePeers()
	for _, p := range f.peers {
		if p != nil && p.busy {
			<-p.sent
			p.busy = false
		}
	}
	select {
	case <-f.watched:
		if f.watchErr != nil {
			err = fmt.Errorf("%w (%v)", f.watchErr, err)
		}
	default:
		_ = f.cfw.write(frame{op: opError, rank: int32(blame), payload: []byte(err.Error())})
	}
	panic(&FabricError{Err: err})
}

// directWriteMax is the largest payload a collective writes to its peers
// from the calling goroutine. Collectives are lock-step, so a rank is at
// most two frames ahead of what a peer has read, and two frames this
// small fit the socket buffers of any TCP stack: the write cannot wait
// on a peer that is itself writing. Handing a small frame to the writer
// goroutine instead costs a goroutine switch on each side, and when the
// ranks compute between collectives — a state round every step — the
// woken goroutine can wait for a whole local step before it runs.
const directWriteMax = 4 << 10

// exchange performs one collective: send this rank's payload to every
// peer — a small one directly, a larger one through each peer's writer
// goroutine, so it is written while the peers' frames are read — read
// the K − 1 peer frames in rank order, checking that each is rank j's
// contribution to this collective, and return the K parts in rank
// order, payload itself at this rank.
//
// payload may be the caller's own memory (exchangeVec sends a vector's
// memory image), which the caller may overwrite as soon as the
// collective returns — the mean is folded into it. So exchange never
// returns while a writer goroutine still reads payload: it waits for
// every handed-off write's outcome (p.sent) before it returns, and fail
// waits out the writes in flight before it panics.
func (f *TCPFabric) exchange(kind string, payload []byte) [][]byte {
	f.seq++
	out := frame{op: opContrib, rank: int32(f.rank), seq: f.seq, kind: kind, payload: payload}
	for j, p := range f.peers {
		if p == nil {
			continue
		}
		if len(payload) <= directWriteMax {
			if err := p.fw.write(out); err != nil {
				f.fail(j, fmt.Errorf("sending seq %d to rank %d: %w", f.seq, j, err))
			}
			continue
		}
		select {
		case p.send <- out:
			p.busy = true
		case <-f.stop:
			f.fail(j, fmt.Errorf("sending seq %d to rank %d: fabric closed", f.seq, j))
		}
	}
	parts := f.parts[:0]
	var wire int64
	for j, p := range f.peers {
		if p == nil {
			parts = append(parts, payload)
			continue
		}
		in, buf, err := readFrame(p.br, p.buf, kind)
		p.buf = buf
		if err != nil {
			f.fail(j, fmt.Errorf("reading rank %d's frame seq %d: %w", j, f.seq, err))
		}
		if in.op != opContrib || in.seq != f.seq || in.kind != kind || in.rank != int32(j) {
			f.fail(j, fmt.Errorf("protocol desync: rank %d's connection sent op=%d seq=%d kind=%q from rank %d, want seq=%d kind=%q",
				j, in.op, in.seq, in.kind, in.rank, f.seq, kind))
		}
		parts = append(parts, in.payload)
		wire += int64(len(payload) + len(in.payload))
	}
	f.parts = parts
	for j, p := range f.peers {
		if p == nil || !p.busy {
			continue
		}
		err := <-p.sent
		p.busy = false
		if err != nil {
			f.fail(j, fmt.Errorf("sending seq %d to rank %d: %w", f.seq, j, err))
		}
	}
	f.lastWire = wire
	f.moved += wire
	return parts
}

// exchangeVec exchanges the local vector and returns the K encoded
// contributions (rank order). This rank's is the vector's memory image
// (tensor.ViewLE), sent without an encode pass, and self is then
// f.rank; in a build without that view it is the vector encoded into
// sendBuf, and self is −1: no part shares local[0]'s memory.
func (f *TCPFabric) exchangeVec(kind string, local [][]float64) (parts [][]byte, self int) {
	if len(local) != 1 {
		f.fail(f.rank, fmt.Errorf("TCPFabric drives 1 rank, got %d local vectors", len(local)))
	}
	payload, self := tensor.ViewLE(local[0]), f.rank
	if payload == nil {
		f.sendBuf = tensor.AppendLE(f.sendBuf[:0], local[0])
		payload, self = f.sendBuf, -1
	}
	return f.exchange(kind, payload), self
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
	parts, self := f.exchangeVec(kind, local) // folded in place: this rank's part may be local[0] itself
	if err := meanF64s(local[0], parts, self); err != nil {
		f.fail(f.rank, err)
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
	parts, _ := f.exchangeVec(kind, local)
	if err := meanF64s(dst, parts, -1); err != nil {
		f.fail(f.rank, err)
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
	parts, _ := f.exchangeVec(kind, local)
	if root != f.rank {
		if err := decodeF64s(local[0], parts[root]); err != nil {
			f.fail(root, fmt.Errorf("rank %d contribution: %w", root, err))
		}
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
	parts, _ := f.exchangeVec("gather", local)
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
			f.fail(r, fmt.Errorf("rank %d contribution: %w", r, err))
		}
	}
	return f.vecs
}

// ExchangeBytes implements Fabric: opaque payload exchange, uncharged.
// The returned views are valid until the next collective; this rank's is
// local[0] itself, the others view the peers' receive buffers.
func (f *TCPFabric) ExchangeBytes(kind string, local [][]byte) [][]byte {
	if len(local) != 1 {
		f.fail(f.rank, fmt.Errorf("TCPFabric drives 1 rank, got %d local payloads", len(local)))
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
	if err := f.cfw.write(frame{op: opResult, rank: int32(f.rank), seq: f.seq, kind: "result", payload: result}); err != nil {
		return err
	}
	<-f.watched
	return f.watchErr
}
