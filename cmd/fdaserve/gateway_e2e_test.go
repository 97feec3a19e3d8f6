package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/runstore"
)

// killableReplica is a real fdaserve instance whose HTTP front can be
// "killed" (connections reset without a response) and revived, without
// tearing down the job runner underneath — exactly what the gateway
// sees when a replica process dies and later restarts on the same port.
type killableReplica struct {
	ts   *httptest.Server
	down atomic.Bool
}

func newKillableReplica(t *testing.T, dir string) *killableReplica {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inner := newServer(st, "", 2, context.Background()).routes()
	r := &killableReplica{}
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r.down.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, req)
	}))
	t.Cleanup(r.ts.Close)
	return r
}

func sweepBody(seed int) string {
	return fmt.Sprintf(`{"experiment":"smoke","scale":"tiny","seed":%d}`, seed)
}

// sweepOwnedBy scans seeds until it finds a sweep spec whose affinity
// owner is the wanted replica, so tests can aim traffic deterministically.
func sweepOwnedBy(t *testing.T, pool *cluster.Pool, base string, startSeed int) (string, int) {
	t.Helper()
	for seed := startSeed; seed <= startSeed+64; seed++ {
		body := sweepBody(seed)
		addr, ok := cluster.AffinityAddress("sweep", []byte(body))
		if !ok {
			t.Fatalf("sweep body %q has no affinity address", body)
		}
		if pool.Rank(addr)[0].Base == base {
			return body, seed
		}
	}
	t.Fatalf("no seed in %d..%d hashes to replica %s", startSeed, startSeed+64, base)
	return "", 0
}

// TestGatewayEndToEnd drives real fdaserve replicas behind a real
// cluster.Gateway: cache-affinity dedupe across resubmission, routing
// parity (gateway results byte-identical to direct submission), failover
// around a killed replica mid-traffic, and rejoin after recovery.
func TestGatewayEndToEnd(t *testing.T) {
	shared := t.TempDir()
	r1 := newKillableReplica(t, shared)
	r2 := newKillableReplica(t, shared)

	// Deterministic injected clock: the test owns quarantine windows.
	var clock atomic.Int64
	now := func() int64 { return clock.Load() }
	pool, err := cluster.NewPool([]string{r1.ts.URL, r2.ts.URL}, cluster.Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	gw := cluster.NewGateway(pool, cluster.GatewayOptions{Now: now})
	gwts := httptest.NewServer(gw.Handler())
	t.Cleanup(gwts.Close)

	bodyA, _ := sweepOwnedBy(t, pool, r1.ts.URL, 1)
	bodyB, _ := sweepOwnedBy(t, pool, r2.ts.URL, 1)
	prefixOf := func(base string) string {
		for _, v := range pool.Views() {
			if v.Base == base {
				return v.Prefix
			}
		}
		t.Fatalf("no replica with base %s", base)
		return ""
	}

	// --- Cache-affinity + dedupe: the submission lands on its affinity
	// owner, and resubmitting the identical spec through the gateway is a
	// dedupe hit (200, same namespaced id) because affinity routing sends
	// it back to the replica that already owns the job.
	var first jobs.View
	postJSON(t, gwts.URL+"/v1/runs", bodyA, http.StatusAccepted, &first)
	wantPrefix := prefixOf(r1.ts.URL) + "-"
	if len(first.ID) <= len(wantPrefix) || first.ID[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("job id %q not namespaced by affinity owner prefix %q", first.ID, wantPrefix)
	}
	if done := awaitDone(t, gwts.URL, first.ID); done.Status != jobs.Done {
		t.Fatalf("gateway job finished %q (err %q), want done", done.Status, done.Error)
	}
	var again jobs.View
	postJSON(t, gwts.URL+"/v1/runs", bodyA, http.StatusOK, &again)
	if again.ID != first.ID {
		t.Fatalf("resubmitted spec got id %s, want dedupe hit on %s", again.ID, first.ID)
	}

	// --- Routing parity: the same spec executed on a standalone server
	// (own store) yields byte-identical records to the gateway run.
	direct := testServer(t, t.TempDir())
	var dv jobs.View
	postJSON(t, direct.URL+"/v1/runs", bodyA, http.StatusAccepted, &dv)
	if done := awaitDone(t, direct.URL, dv.ID); done.Status != jobs.Done {
		t.Fatalf("direct job finished %q (err %q), want done", done.Status, done.Error)
	}
	var viaGateway, viaDirect map[string]json.RawMessage
	getJSON(t, gwts.URL+"/v1/runs/"+first.ID+"/records", http.StatusOK, &viaGateway)
	getJSON(t, direct.URL+"/v1/runs/"+dv.ID+"/records", http.StatusOK, &viaDirect)
	if string(viaGateway["records"]) != string(viaDirect["records"]) {
		t.Fatalf("routing changed results:\ngateway: %.200s\ndirect:  %.200s",
			viaGateway["records"], viaDirect["records"])
	}

	// --- Failover: kill r1 mid-traffic. A job already running on the
	// survivor is unaffected, and a spec whose affinity owner is the dead
	// replica fails over to the survivor instead of erroring.
	orphanSpec, _ := sweepOwnedBy(t, pool, r1.ts.URL, 1000)
	var onSurvivor jobs.View
	postJSON(t, gwts.URL+"/v1/runs", bodyB, http.StatusAccepted, &onSurvivor)
	r1.down.Store(true)
	var failedOver jobs.View
	postJSON(t, gwts.URL+"/v1/runs", orphanSpec, http.StatusAccepted, &failedOver)
	survivorPrefix := prefixOf(r2.ts.URL) + "-"
	if failedOver.ID[:len(survivorPrefix)] != survivorPrefix {
		t.Fatalf("failover job id %q not on survivor (prefix %q)", failedOver.ID, survivorPrefix)
	}
	if done := awaitDone(t, gwts.URL, onSurvivor.ID); done.Status != jobs.Done {
		t.Fatalf("survivor's in-flight job finished %q (err %q), want done", done.Status, done.Error)
	}
	if done := awaitDone(t, gwts.URL, failedOver.ID); done.Status != jobs.Done {
		t.Fatalf("failed-over job finished %q (err %q), want done", done.Status, done.Error)
	}

	// --- Rejoin: r1 comes back; once its quarantine window elapses the
	// poll probe reinstates it and affinity traffic returns.
	r1.down.Store(false)
	clock.Add(60e9)
	pool.Poll(t.Context())
	var cl struct {
		Replicas []cluster.View `json:"replicas"`
	}
	getJSON(t, gwts.URL+"/v1/cluster", http.StatusOK, &cl)
	for _, v := range cl.Replicas {
		if !v.Healthy {
			t.Fatalf("replica %s still unhealthy after recovery poll: %+v", v.Base, v)
		}
	}
	bodyC, _ := sweepOwnedBy(t, pool, r1.ts.URL, 2000)
	var rejoined jobs.View
	postJSON(t, gwts.URL+"/v1/runs", bodyC, http.StatusAccepted, &rejoined)
	if done := awaitDone(t, gwts.URL, rejoined.ID); done.Status != jobs.Done {
		t.Fatalf("post-rejoin job finished %q (err %q), want done", done.Status, done.Error)
	}
}
