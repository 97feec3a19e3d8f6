package comm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// testDeadline bounds every wait of the socket tests: a relay or a
// collective that outlives it has hung.
const testDeadline = 10 * time.Second

// serve starts a coordinator for k workers and one session on it in the
// background; served yields Serve's error.
func serve(t testing.TB, k int) (coord *Coordinator, served <-chan error) {
	t.Helper()
	coord, err := ListenCoordinator("127.0.0.1:0", k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := coord.Serve(context.Background(), nil)
		done <- err
	}()
	return coord, done
}

// dialAll dials k fabrics into coord's session under ctx, concurrently —
// DialFabric returns only once the whole cluster is connected — and
// returns them by rank; a failed dial is in errs, by arrival.
func dialAll(t testing.TB, ctx context.Context, coord *Coordinator, k int) (fabs []*TCPFabric, errs []error) {
	t.Helper()
	type dialed struct {
		f   *TCPFabric
		err error
	}
	c := make(chan dialed, k)
	for range k {
		go func() {
			f, _, err := DialFabric(ctx, coord.Addr(), DefaultCostModel())
			c <- dialed{f, err}
		}()
	}
	fabs = make([]*TCPFabric, k)
	for range k {
		d := <-c
		if d.err != nil {
			errs = append(errs, d.err)
			continue
		}
		t.Cleanup(func() { d.f.Close() })
		fabs[d.f.Rank()] = d.f
	}
	return fabs, errs
}

// loopback is serve plus k concurrent dials; fabs[r] holds rank r.
func loopback(t testing.TB, k int) (coord *Coordinator, served <-chan error, fabs []*TCPFabric) {
	t.Helper()
	coord, served = serve(t, k)
	fabs, errs := dialAll(t, context.Background(), coord, k)
	if len(errs) > 0 {
		t.Fatal(errors.Join(errs...))
	}
	return coord, served, fabs
}

// admitted waits until coord has accepted n worker connections: the next
// to dial gets rank n.
func admitted(t testing.TB, coord *Coordinator, n int) {
	t.Helper()
	for end := time.Now().Add(testDeadline); ; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		have := len(coord.conns)
		coord.mu.Unlock()
		if have >= n {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("coordinator admitted %d workers after %v, want %d", have, testDeadline, n)
		}
	}
}

// dialAfter dials a fabric into coord's session as rank n, once n workers
// are in; the returned function waits for its rendezvous to end and
// returns it (nil if it failed). The test closes it at the latest.
func dialAfter(t *testing.T, coord *Coordinator, n int) func() *TCPFabric {
	t.Helper()
	admitted(t, coord, n)
	c := make(chan *TCPFabric, 1)
	go func() {
		f, _, err := DialFabric(context.Background(), coord.Addr(), DefaultCostModel())
		if err != nil {
			t.Errorf("rank %d's rendezvous: %v", n, err)
		}
		c <- f
	}()
	var f *TCPFabric
	got := false
	get := func() *TCPFabric {
		if !got {
			f, got = await(t, fmt.Sprintf("rank %d's rendezvous", n), c), true
		}
		return f
	}
	t.Cleanup(func() {
		if f := get(); f != nil {
			f.Close()
		}
	})
	return get
}

// collective runs op in the background and yields what it panicked with
// (nil when it returned).
func collective(op func()) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		op()
	}()
	return out
}

// await receives from c within the test deadline.
func await[T any](t *testing.T, what string, c <-chan T) (v T) {
	t.Helper()
	select {
	case v = <-c:
	case <-time.After(testDeadline):
		t.Fatalf("%s: still waiting after %v", what, testDeadline)
	}
	return v
}

// awaitFabricError asserts that a collective panicked with *FabricError.
func awaitFabricError(t *testing.T, what string, c <-chan any) {
	t.Helper()
	p := await(t, what, c)
	if fe, ok := p.(*FabricError); !ok || fe.Err == nil {
		t.Fatalf("%s: ended with %v, want a *FabricError panic", what, p)
	}
}

// noGoroutineLeft waits for the goroutine count to fall back to base.
func noGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	for end := time.Now().Add(testDeadline); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, %d before the test:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestTCPFabricBroadcast checks that every rank ends up with the root's
// vector at the naive broadcast charge, and that a root outside the
// cluster is refused like Cluster.Broadcast refuses it — before anything
// is sent.
func TestTCPFabricBroadcast(t *testing.T) {
	const k = 3
	_, _, fabs := loopback(t, k)
	vecs := make([][]float64, k)
	ops := make([]<-chan any, k)
	for r, f := range fabs {
		vecs[r] = []float64{float64(r), float64(r) + 0.5}
		ops[r] = collective(func() {
			if rep := f.Broadcast("model", 1, [][]float64{vecs[r]}); rep.Bytes != 16 || f.Meter().BytesFor("model") != 16 {
				t.Errorf("rank %d broadcast charged %d (meter %d), want 16", r, rep.Bytes, f.Meter().BytesFor("model"))
			}
		})
	}
	for r := range ops {
		if p := await(t, fmt.Sprintf("rank %d broadcast", r), ops[r]); p != nil {
			t.Fatalf("rank %d broadcast panicked: %v", r, p)
		}
		if vecs[r][0] != 1 || vecs[r][1] != 1.5 {
			t.Fatalf("rank %d holds %v after broadcast from root 1", r, vecs[r])
		}
	}
	for _, root := range []int{-1, k} {
		want := <-collective(func() { NewCluster(k).Broadcast("model", root, [][]float64{{0}, {0}, {0}}) })
		got := await(t, "bad-root broadcast", collective(func() { fabs[0].Broadcast("model", root, [][]float64{{0}}) }))
		if got == nil || got != want {
			t.Fatalf("root %d: TCPFabric panicked with %v, Cluster with %v", root, got, want)
		}
	}
	if fabs[0].seq != 1 {
		t.Fatalf("rank 0 started %d exchanges, want 1: a bad root must be refused before the exchange", fabs[0].seq)
	}
}

// TestCoordinatorEndFailsInFlightCollectives pins what fdaserve's DELETE
// rests on: closing the coordinator, or cancelling its Serve, fails both
// workers' collectives in flight — blocked on a third rank that never
// contributes — with *FabricError, promptly, leaving no goroutine behind.
// The fabrics watch their coordinator connections; nothing else tells
// them.
func TestCoordinatorEndFailsInFlightCollectives(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, end := range []string{"Close", "cancel"} {
		coord, err := ListenCoordinator("127.0.0.1:0", 3)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() {
			_, err := coord.Serve(ctx, nil)
			served <- err
		}()
		first, second := dialAfter(t, coord, 0), dialAfter(t, coord, 1)
		admitted(t, coord, 2)
		silent := helloRaw(t, coord.Addr()) // rank 2
		silent.assigned(t)
		silent.links(t)
		fabs := []*TCPFabric{first(), second()}
		var ops []<-chan any
		for _, f := range fabs {
			ops = append(ops, collective(func() { f.AllReduce("model", [][]float64{{1, 2}}) }))
		}
		if end == "Close" {
			coord.Close()
		} else {
			cancel()
		}
		if err := await(t, end+": Serve", served); err == nil || end == "cancel" && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Serve returned %v", end, err)
		}
		// The first rank whose watcher fires fails for its coordinator
		// connection; the other may fail first for that rank's hang-up.
		watched := 0
		for r, op := range ops {
			p := await(t, fmt.Sprintf("%s: rank %d's all-reduce", end, r), op)
			fe, ok := p.(*FabricError)
			if !ok {
				t.Fatalf("%s: rank %d's all-reduce ended with %v, want a *FabricError", end, r, p)
			}
			if strings.Contains(fe.Error(), "coordinator connection") {
				watched++
			}
		}
		if watched == 0 {
			t.Fatalf("%s: neither rank's collective failed for its coordinator connection", end)
		}
		cancel()
		silent.close()
		for _, f := range fabs {
			f.Close()
		}
	}
	noGoroutineLeft(t, base)
}

// TestJoinDeadlineFailsRendezvousAndFreesAddress: with K = 2 and one
// worker that never dials, Serve returns a deadline error that says how
// far the rendezvous got instead of parking forever, and hangs up on the
// worker it had admitted; a worker that dials and stays silent fails the
// same way. The address is then free for a later job, whose run —
// deadlines cleared once the rendezvous is over — outlives its own
// JoinDeadline.
func TestJoinDeadlineFailsRendezvousAndFreesAddress(t *testing.T) {
	base := runtime.NumGoroutine()
	listen := func(addr string, join time.Duration) (*Coordinator, <-chan error) {
		coord, err := ListenCoordinator(addr, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		coord.JoinDeadline = time.Now().Add(join)
		served := make(chan error, 1)
		go func() {
			_, err := coord.Serve(context.Background(), nil)
			served <- err
		}()
		return coord, served
	}
	timedOut := func(what string, served <-chan error, have string) {
		t.Helper()
		err := await(t, what, served)
		if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), have) {
			t.Fatalf("%s: Serve returned %v, want a deadline error saying %q", what, err, have)
		}
	}

	coord, served := listen("127.0.0.1:0", 100*time.Millisecond)
	admitted := helloRaw(t, coord.Addr())
	timedOut("second worker never dials", served, "have 1 of 2 workers")
	admitted.conn.SetReadDeadline(time.Now().Add(testDeadline))
	if _, err := admitted.conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("admitted worker read %v after the failed rendezvous, want EOF", err)
	}
	addr := coord.Addr()
	coord.Close()

	coord, served = listen(addr, 100*time.Millisecond)
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	timedOut("first worker never says hello", served, "have 0 of 2 workers")
	coord.Close()

	const join = 200 * time.Millisecond
	coord, served = listen(addr, join)
	fabs, errs := dialAll(t, context.Background(), coord, 2)
	if len(errs) > 0 {
		t.Fatal(errors.Join(errs...))
	}
	time.Sleep(time.Until(coord.JoinDeadline) + join/4)
	vecs := [][]float64{{1}, {3}}
	ops := []<-chan any{
		collective(func() { fabs[0].AllReduce("model", vecs[:1]) }),
		collective(func() { fabs[1].AllReduce("model", vecs[1:]) }),
	}
	for r, op := range ops {
		if p := await(t, "all-reduce past the join deadline", op); p != nil || vecs[r][0] != 2 {
			t.Fatalf("rank %d: all-reduce past the join deadline gave %v, panic %v", r, vecs[r], p)
		}
	}
	acked := make(chan error, len(fabs))
	for _, f := range fabs {
		go func() { acked <- f.SendResult(nil) }()
	}
	for range fabs {
		if err := await(t, "result acknowledgement", acked); err != nil {
			t.Fatal(err)
		}
	}
	if err := await(t, "Serve of the later job", served); err != nil {
		t.Fatalf("later job on the same address: %v", err)
	}
	for _, f := range fabs {
		f.Close()
	}
	noGoroutineLeft(t, base)
}

// TestDialFabricRendezvousHonoursContext: a worker whose hello goes
// unanswered — here the coordinator listens but never serves; in a job
// it is busy with an earlier, silent connection — returns when its
// context is cancelled or runs out, with the context's error, instead of
// blocking until the coordinator gives up. Once the rendezvous is over
// the context no longer reaches the connection: collectives outlive both
// its deadline and its cancellation.
func TestDialFabricRendezvousHonoursContext(t *testing.T) {
	base := runtime.NumGoroutine()
	idle, err := ListenCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	for name, bound := range map[string]func() (context.Context, context.CancelFunc, error){
		"cancelled": func() (context.Context, context.CancelFunc, error) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel, context.Canceled
		},
		"deadline": func() (context.Context, context.CancelFunc, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			return ctx, cancel, context.DeadlineExceeded
		},
	} {
		ctx, cancel, want := bound()
		dialed := make(chan error, 1)
		go func() {
			_, _, err := DialFabric(ctx, idle.Addr(), DefaultCostModel())
			dialed <- err
		}()
		if err := await(t, name+" dial", dialed); !errors.Is(err, want) {
			t.Fatalf("%s: DialFabric returned %v, want %v", name, err, want)
		}
		cancel()
	}

	coord, served := serve(t, 2)
	const bound = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	fabs, errs := dialAll(t, ctx, coord, 2)
	if len(errs) > 0 {
		t.Fatal(errors.Join(errs...))
	}
	<-ctx.Done()
	cancel()
	time.Sleep(bound / 4)
	vecs := [][]float64{{1}, {3}}
	ops := []<-chan any{
		collective(func() { fabs[0].AllReduce("model", vecs[:1]) }),
		collective(func() { fabs[1].AllReduce("model", vecs[1:]) }),
	}
	for r, op := range ops {
		if p := await(t, "all-reduce past the dial context", op); p != nil || vecs[r][0] != 2 {
			t.Fatalf("rank %d: all-reduce past the dial context gave %v, panic %v", r, vecs[r], p)
		}
	}
	for _, f := range fabs {
		f.Close()
	}
	await(t, "Serve after the workers left", served)
	coord.Close()
	noGoroutineLeft(t, base)
}

// rawWorker is a worker driven frame by frame: it says hello naming a
// peer listener of its own, and the test decides what it does next.
type rawWorker struct {
	conn  net.Conn     // to the coordinator
	ln    net.Listener // its peer listener
	rank  int
	addrs []string // the assignment's peer table
	peers []rawLink
}

// rawLink is one of a raw worker's peer connections.
type rawLink struct {
	conn net.Conn
	br   *bufio.Reader
}

// helloRaw connects to the coordinator at addr and says hello; it does
// not wait for the assignment (assigned does).
func helloRaw(t *testing.T, addr string) *rawWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &rawWorker{conn: conn, ln: ln}
	t.Cleanup(w.close)
	if _, err := conn.Write(frameBytes(t, frame{op: opHello, rank: -1, payload: []byte(ln.Addr().String())})); err != nil {
		t.Fatal(err)
	}
	return w
}

// close hangs up every connection and the listener, as a worker's death
// would.
func (w *rawWorker) close() {
	w.conn.Close()
	w.ln.Close()
	for _, l := range w.peers {
		if l.conn != nil {
			l.conn.Close()
		}
	}
}

// assigned reads the assignment.
func (w *rawWorker) assigned(t *testing.T) {
	t.Helper()
	// Nothing follows the assignment until the run ends, so the reader
	// buffers no byte past it.
	fr, _, err := readFrame(bufio.NewReader(w.conn), nil, "")
	if err != nil || fr.op != opAssign {
		t.Fatalf("raw worker's assignment: op=%d, %v", fr.op, err)
	}
	if w.addrs, _, err = parseAssignment(fr.payload); err != nil {
		t.Fatal(err)
	}
	w.rank = int(fr.rank)
	w.peers = make([]rawLink, len(w.addrs))
}

// link connects w to rank j the way a fabric does — it dials a higher
// rank, accepts a lower one — and exchanges their peer hellos.
func (w *rawWorker) link(t *testing.T, j int) rawLink {
	t.Helper()
	hello := frameBytes(t, peerHello(w.rank, len(w.addrs)))
	if j > w.rank {
		conn, err := net.Dial("tcp", w.addrs[j])
		if err != nil {
			t.Fatal(err)
		}
		w.peers[j] = rawLink{conn: conn, br: bufio.NewReader(conn)}
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
	}
	from := j
	if j < w.rank {
		conn, err := w.ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		l := rawLink{conn: conn, br: bufio.NewReader(conn)}
		fr, _, err := readFrame(l.br, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if from, err = parsePeerHello(fr, len(w.addrs)); err != nil {
			t.Fatal(err)
		}
		w.peers[from] = l
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
	} else {
		fr, _, err := readFrame(w.peers[j].br, nil, "")
		if got, perr := parsePeerHello(fr, len(w.addrs)); err != nil || perr != nil || got != j {
			t.Fatalf("rank %d's peer hello: rank %d, %v, %v", j, got, err, perr)
		}
	}
	return w.peers[from]
}

// links connects w to every other rank, whatever order the lower ones
// dial in.
func (w *rawWorker) links(t *testing.T) {
	t.Helper()
	for j := range w.addrs {
		if j != w.rank {
			w.link(t, j)
		}
	}
}

// send writes f on the link.
func (l rawLink) send(t *testing.T, f frame) {
	t.Helper()
	if _, err := l.conn.Write(frameBytes(t, f)); err != nil {
		t.Fatal(err)
	}
}

// read reads the next n bytes the peer sent.
func (l rawLink) read(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := io.ReadFull(l.br, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// contribution is rank's frame for collective seq over v.
func contribution(rank int, seq uint32, kind string, v []float64) frame {
	return frame{op: opContrib, rank: int32(rank), seq: seq, kind: kind, payload: tensor.AppendLE(nil, v)}
}

// TestWorkerDiesMidContribution pins what a worker's death half-way
// through sending its contribution to its peer does: Serve returns an
// error naming the dead rank, not the survivor, and the survivor's
// collective panics with *FabricError — promptly, leaving no goroutine
// behind.
func TestWorkerDiesMidContribution(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	dying := helloRaw(t, coord.Addr()) // rank 0
	survivor := dialAfter(t, coord, 1)
	dying.assigned(t)
	link := dying.link(t, 1)
	f := survivor()
	vec := []float64{1, 2, 3, 4}
	op := collective(func() { f.AllReduce("model", [][]float64{vec}) })
	enc := frameBytes(t, contribution(0, 1, "model", vec))
	if _, err := link.conn.Write(enc[:len(enc)/2]); err != nil {
		t.Fatal(err)
	}
	dying.close()

	err := await(t, "Serve", served)
	if err == nil || !strings.Contains(err.Error(), "worker 0") || strings.Contains(err.Error(), "worker 1") ||
		!errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Serve returned %v, want an unexpected-EOF error naming worker 0 alone", err)
	}
	awaitFabricError(t, "the survivor's all-reduce", op)
	f.Close()
	noGoroutineLeft(t, base)
}

// TestWorkerDiesMidPeerFrame is the write-side twin: a worker whose own
// contribution has arrived dies half-way through receiving the survivor's
// — an 8 MiB part, twice the 4 MiB the loopback send and receive buffers
// of an unread connection absorb on Linux, so the write cannot already
// be over. The survivor, rank 0, reports the failure to the coordinator
// first; Serve follows the report and names rank 1, the rank that died.
func TestWorkerDiesMidPeerFrame(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	survivor := dialAfter(t, coord, 0)
	admitted(t, coord, 1)
	dying := helloRaw(t, coord.Addr()) // rank 1
	dying.assigned(t)
	link := dying.link(t, 0)
	f := survivor()
	vec := make([]float64, 1<<20) // 8 MiB a part
	op := collective(func() { f.AllReduce("model", [][]float64{vec}) })
	// Well-formed but short, so it arrives whole; the survivor fails
	// writing before it could fold it.
	link.send(t, contribution(1, 1, "model", vec[:2]))
	link.read(t, 64) // the survivor's part is on its way
	dying.close()

	err := await(t, "Serve", served)
	if err == nil || !strings.HasPrefix(err.Error(), "comm: worker 1:") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Serve returned %v, want an unexpected-EOF error naming worker 1", err)
	}
	awaitFabricError(t, "the survivor's all-reduce", op)
	f.Close()
	noGoroutineLeft(t, base)
}

// TestMismatchedPeerFrameRefused: a peer frame from the wrong collective,
// of the wrong kind, or claiming another sender rank than its
// connection's fails the collective with a *FabricError before anything
// is folded into the vector, and Serve names the sender.
func TestMismatchedPeerFrameRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	vec := []float64{1, 2, 3}
	for _, bad := range []frame{
		contribution(0, 2, "model", vec),
		contribution(0, 1, "state", vec),
		contribution(1, 1, "model", vec),
	} {
		coord, served := serve(t, 2)
		sender := helloRaw(t, coord.Addr()) // rank 0
		receiver := dialAfter(t, coord, 1)
		sender.assigned(t)
		sender.link(t, 1).send(t, bad)
		f := receiver()
		got := slices.Clone(vec)
		p := await(t, "all-reduce over a mismatched frame", collective(func() { f.AllReduce("model", [][]float64{got}) }))
		if fe, ok := p.(*FabricError); !ok || !strings.Contains(fe.Error(), "protocol desync") {
			t.Fatalf("seq %d kind %q from rank %d: all-reduce ended with %v, want a *FabricError saying protocol desync", bad.seq, bad.kind, bad.rank, p)
		}
		if !slices.Equal(got, vec) {
			t.Fatalf("all-reduce over a refused frame folded it: %v", got)
		}
		sender.close()
		if err := await(t, "Serve", served); err == nil || !strings.HasPrefix(err.Error(), "comm: worker 0") {
			t.Fatalf("Serve returned %v, want an error naming worker 0", err)
		}
		f.Close()
	}
	noGoroutineLeft(t, base)
}

// TestPeerListenerRefusesStrangers: a connection to a worker's peer
// listener whose hello is of another wire version, from a rank outside
// the cluster or not below the listener's, from a cluster of another
// size, or from a rank already connected is hung up on, and the
// rendezvous completes with the real peers, whose collective then folds.
func TestPeerListenerRefusesStrangers(t *testing.T) {
	coord, served := serve(t, 3)
	raws := []*rawWorker{helloRaw(t, coord.Addr())}
	admitted(t, coord, 1)
	raws = append(raws, helloRaw(t, coord.Addr()))
	listener := dialAfter(t, coord, 2)
	for _, w := range raws {
		w.assigned(t)
	}
	addr := raws[0].addrs[2]
	refused := func(what string, hello []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(testDeadline))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: the listener answered %d bytes, %v; want a hang-up", what, n, err)
		}
	}
	refused("previous wire version", v2Frame(t, peerHello(0, 3)))
	refused("rank outside the cluster", frameBytes(t, peerHello(7, 3)))
	refused("the listener's own rank", frameBytes(t, peerHello(2, 3)))
	refused("another cluster size", frameBytes(t, peerHello(0, 4)))
	links := []rawLink{raws[0].link(t, 2)}
	refused("a rank already connected", frameBytes(t, peerHello(0, 3)))
	links = append(links, raws[1].link(t, 2))
	f := listener()

	vec := []float64{3}
	op := collective(func() { f.AllReduce("model", [][]float64{vec}) })
	for r, l := range links {
		l.send(t, contribution(r, 1, "model", []float64{float64(6 * r)}))
	}
	if p := await(t, "all-reduce after the strangers", op); p != nil || vec[0] != 3 {
		t.Fatalf("all-reduce after the strangers gave %v, panic %v", vec, p)
	}
	f.Close()
	for _, w := range raws {
		w.close()
	}
	await(t, "Serve", served)
}

// v2Frame is f as a peer of the previous wire version sends it: magic
// "FDA2", the rest (which the CRC covers) unchanged.
func v2Frame(t testing.TB, f frame) []byte {
	b := frameBytes(t, f)
	copy(b, "FDA2")
	return b
}

// fakeCoordinator listens on loopback for one worker and, in the
// background, answers each frame it reads with the next of replies, then
// reads until the worker hangs up; done closes once it has returned.
func fakeCoordinator(t *testing.T, replies ...[]byte) (addr string, done <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c := make(chan struct{})
	go func() {
		defer close(c)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, reply := range replies {
			if _, _, err := readFrame(br, nil, ""); err != nil {
				t.Errorf("fake coordinator: %v", err)
				return
			}
			if _, err := conn.Write(reply); err != nil {
				t.Errorf("fake coordinator: %v", err)
				return
			}
		}
		_, _ = io.Copy(io.Discard, br) // until the worker hangs up
	}()
	return ln.Addr().String(), c
}

// TestPreviousWireVersionRefused: a peer of the previous wire version is
// refused at the rendezvous, either way round — a version-2 hello fails
// Serve naming the worker, a version-2 assignment fails DialFabric — and
// neither side leaves a goroutine behind. (A version-2 peer hello is
// refused like any stranger's: TestPeerListenerRefusesStrangers.)
func TestPreviousWireVersionRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	old, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(v2Frame(t, frame{op: opHello, rank: -1, payload: []byte("127.0.0.1:1")})); err != nil {
		t.Fatal(err)
	}
	if err := await(t, "Serve", served); err == nil || !strings.Contains(err.Error(), "worker 0") ||
		!strings.Contains(err.Error(), "bad wire magic") {
		t.Fatalf("Serve returned %v, want a bad-wire-magic error naming worker 0", err)
	}
	old.Close()
	coord.Close()

	assignment := frame{op: opAssign, payload: appendAssignment(nil, []string{"127.0.0.1:1", "127.0.0.1:2"}, nil)}
	addr, done := fakeCoordinator(t, v2Frame(t, assignment))
	if _, _, err := DialFabric(context.Background(), addr, DefaultCostModel()); err == nil ||
		!strings.Contains(err.Error(), "bad wire magic") {
		t.Fatalf("DialFabric returned %v, want a bad-wire-magic error", err)
	}
	await(t, "fake coordinator", done)
	noGoroutineLeft(t, base)
}

// TestLoopbackClusterZeroAllocs pins the steady state of the whole socket
// fabric — two ranks and the coordinator in this process: after warm-up a
// two-scalar state round and a model-sized round allocate nothing, on
// either rank, its writer or its watcher.
func TestLoopbackClusterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	_, _, fabs := loopback(t, 2)
	round := roundDriver(t, fabs)
	for _, c := range []struct {
		kind string
		n    int
	}{{"state", 2}, {"model", 94436}} {
		vecs := roundVecs(len(fabs), c.n)
		body := func() { round(c.kind, vecs) }
		body() // warm-up: buffers grow to the round's size
		body()
		if avg := testing.AllocsPerRun(20, body); avg != 0 {
			t.Fatalf("a %d-element %q round allocates %.1f objects across the cluster, want 0", c.n, c.kind, avg)
		}
	}
}
