package comm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
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

// dial joins coord's session as the next rank.
func dial(t testing.TB, coord *Coordinator) *TCPFabric {
	t.Helper()
	f, _, err := DialFabric(context.Background(), coord.Addr(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// loopback is serve plus k dials one after the other, so fabs[r] holds
// rank r.
func loopback(t testing.TB, k int) (coord *Coordinator, served <-chan error, fabs []*TCPFabric) {
	t.Helper()
	coord, served = serve(t, k)
	for r := 0; r < k; r++ {
		fabs = append(fabs, dial(t, coord))
	}
	return coord, served, fabs
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

// TestCoordinatorCloseAbortsRelay pins Close's contract: landing while the
// relay is blocked reading workers of which one never contributes, it
// makes Serve return promptly with an error and fails the waiting
// worker's collective.
func TestCoordinatorCloseAbortsRelay(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served, fabs := loopback(t, 2) // both ranks admitted: Serve is relaying
	op := collective(func() { fabs[0].AllReduce("model", [][]float64{{1, 2}}) })
	coord.Close()
	if err := await(t, "Serve after Close", served); err == nil {
		t.Fatal("Serve returned no error after Close landed mid-relay")
	}
	awaitFabricError(t, "rank 0's all-reduce", op)
	fabs[1].Close()
	noGoroutineLeft(t, base)
}

// TestJoinDeadlineFailsRendezvousAndFreesAddress: with K = 2 and one
// worker that never dials, Serve returns a deadline error that says how
// far the rendezvous got instead of parking forever, and hangs up on the
// worker it had admitted; a worker that dials and stays silent fails the
// same way. The address is then free for a later job, whose relay —
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
	admitted := dialRawWorker(t, coord.Addr())
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
	fabs := []*TCPFabric{dial(t, coord), dial(t, coord)}
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
	var fabs [2]*TCPFabric
	for r := range fabs {
		f, _, err := DialFabric(ctx, coord.Addr(), DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabs[r] = f
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

// rawWorker is a worker driven frame by frame: the handshake done, the
// connection positioned before the first collective.
type rawWorker struct {
	conn net.Conn
	rank int32
}

func dialRawWorker(t *testing.T, addr string) rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(bufio.NewWriter(conn), frame{op: opHello, rank: -1}); err != nil {
		t.Fatal(err)
	}
	// Unbuffered-size reader: nothing past the assignment frame is consumed.
	fr, _, err := readFrame(bufio.NewReaderSize(conn, frameHeadLen+255+4), nil, "")
	if err != nil || fr.op != opAssign {
		t.Fatalf("raw worker handshake: op=%d, %v", fr.op, err)
	}
	return rawWorker{conn: conn, rank: fr.rank}
}

// contribution is the frame a worker sends for its first collective.
func (w rawWorker) contribution(t *testing.T, kind string, v []float64) []byte {
	return frameBytes(t, frame{op: opContrib, rank: w.rank, seq: 1, kind: kind, payload: appendF64s(nil, v)})
}

// TestWorkerDiesMidContribution pins what a worker's death half-way
// through a contribution frame does today: Serve returns an error naming
// the rank, and the surviving worker's collective panics with
// *FabricError — promptly, leaving no goroutine behind.
func TestWorkerDiesMidContribution(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	survivor := dial(t, coord) // rank 0
	dying := dialRawWorker(t, coord.Addr())
	vec := []float64{1, 2, 3, 4}
	op := collective(func() { survivor.AllReduce("model", [][]float64{vec}) })
	enc := dying.contribution(t, "model", vec)
	if _, err := dying.conn.Write(enc[:len(enc)/2]); err != nil {
		t.Fatal(err)
	}
	dying.conn.Close()

	err := await(t, "Serve", served)
	if err == nil || !strings.Contains(err.Error(), "worker 1") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Serve returned %v, want an unexpected-EOF error naming worker 1", err)
	}
	awaitFabricError(t, "the survivor's all-reduce", op)
	survivor.Close()
	noGoroutineLeft(t, base)
}

// TestWorkerDiesMidBundle is the write-side twin: a worker that closes
// its socket while the coordinator is writing its bundle — the
// survivor's 8 MiB part, twice the 4 MiB the loopback send and receive
// buffers of an unread connection absorb on Linux, so the write cannot
// already be over.
func TestWorkerDiesMidBundle(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	dying := dialRawWorker(t, coord.Addr()) // rank 0: its bundle is written first
	survivor := dial(t, coord)
	vec := make([]float64, 1<<20) // 8 MiB a part, one part a bundle
	op := collective(func() { survivor.AllReduce("model", [][]float64{vec}) })
	if _, err := dying.conn.Write(dying.contribution(t, "model", vec)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(dying.conn, make([]byte, 64)); err != nil { // the bundle is on its way
		t.Fatal(err)
	}
	dying.conn.Close()

	err := await(t, "Serve", served)
	if err == nil || !strings.Contains(err.Error(), "bundle to worker 0") {
		t.Fatalf("Serve returned %v, want a bundle-write error naming worker 0", err)
	}
	awaitFabricError(t, "the survivor's all-reduce", op)
	survivor.Close()
	noGoroutineLeft(t, base)
}

// v1Frame is f as a peer of the previous wire version sends it: magic
// "FDA1", the rest (which the CRC covers) unchanged.
func v1Frame(t testing.TB, f frame) []byte {
	b := frameBytes(t, f)
	copy(b, "FDA1")
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

// assignment makes its recipient rank 0 of a 2-worker cluster.
var assignment = frame{op: opAssign, payload: []byte{2, 0, 0, 0}}

// TestPreviousWireVersionRefused: a peer of the previous wire version is
// refused at the rendezvous, either way round — a version-1 hello fails
// Serve naming the worker, a version-1 assignment fails DialFabric — and
// neither side leaves a goroutine behind.
func TestPreviousWireVersionRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	coord, served := serve(t, 2)
	old, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(v1Frame(t, frame{op: opHello, rank: -1})); err != nil {
		t.Fatal(err)
	}
	if err := await(t, "Serve", served); err == nil || !strings.Contains(err.Error(), "worker 0") ||
		!strings.Contains(err.Error(), "bad wire magic") {
		t.Fatalf("Serve returned %v, want a bad-wire-magic error naming worker 0", err)
	}
	old.Close()
	coord.Close()

	addr, done := fakeCoordinator(t, v1Frame(t, assignment))
	if _, _, err := DialFabric(context.Background(), addr, DefaultCostModel()); err == nil ||
		!strings.Contains(err.Error(), "bad wire magic") {
		t.Fatalf("DialFabric returned %v, want a bad-wire-magic error", err)
	}
	await(t, "fake coordinator", done)
	noGoroutineLeft(t, base)
}

// TestBundleWithOwnPartRefused: a bundle of the previous shape — all K
// contributions, the recipient's own included — fails the collective
// with a *FabricError before anything is folded into the vector.
func TestBundleWithOwnPartRefused(t *testing.T) {
	base := runtime.NumGoroutine()
	vec := []float64{1, 2, 3}
	own := appendF64s(nil, vec)
	both := frame{op: opBundle, seq: 1, kind: "model", payload: appendBundle(nil, [][]byte{own, own}, -1)}
	addr, done := fakeCoordinator(t, frameBytes(t, assignment), frameBytes(t, both))
	f, _, err := DialFabric(context.Background(), addr, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	p := await(t, "all-reduce over an old-shape bundle", collective(func() { f.AllReduce("model", [][]float64{vec}) }))
	if fe, ok := p.(*FabricError); !ok || !strings.Contains(fe.Error(), "bundle carries 2 parts, want 1") {
		t.Fatalf("all-reduce over a 2-part bundle ended with %v, want a *FabricError saying it carries 2 parts, want 1", p)
	}
	if !slices.Equal(vec, []float64{1, 2, 3}) {
		t.Fatalf("all-reduce over a refused bundle folded it: %v", vec)
	}
	f.Close()
	await(t, "fake coordinator", done)
	noGoroutineLeft(t, base)
}

// TestLoopbackClusterZeroAllocs pins the steady state of the whole socket
// fabric — two ranks and the coordinator in this process: after warm-up a
// two-scalar state round and a model-sized round allocate nothing, on
// either side of the relay.
func TestLoopbackClusterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	_, _, fabs := loopback(t, 2)
	type round struct {
		kind string
		vec  [][]float64
	}
	start := make([]chan round, len(fabs))
	done := make(chan struct{}, len(fabs))
	for r, f := range fabs {
		start[r] = make(chan round)
		go func() {
			for rd := range start[r] {
				f.AllReduce(rd.kind, rd.vec)
				done <- struct{}{}
			}
		}()
		defer close(start[r])
	}
	for _, c := range []struct {
		kind string
		n    int
	}{{"state", 2}, {"model", 94436}} {
		vecs := make([][][]float64, len(fabs))
		for r := range vecs {
			vecs[r] = [][]float64{make([]float64, c.n)}
			for i := range vecs[r][0] {
				vecs[r][0][i] = math.Sin(float64(i + r))
			}
		}
		body := func() {
			for r := range fabs {
				start[r] <- round{c.kind, vecs[r]}
			}
			for range fabs {
				<-done
			}
		}
		body() // warm-up: buffers grow to the round's size
		body()
		if avg := testing.AllocsPerRun(20, body); avg != 0 {
			t.Fatalf("a %d-element %q round allocates %.1f objects across the cluster, want 0", c.n, c.kind, avg)
		}
	}
}
