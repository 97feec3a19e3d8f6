package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// HTTPShell is the instrumented HTTP surface fdaserve and fdagate share
// (DESIGN.md §11): per-route latency histograms and per-status counters
// under <prefix>_http_request_seconds / <prefix>_http_requests_total,
// and an optional structured access log. The route label is the mux
// pattern, so /v1/runs/r1 and /v1/runs/r2 share the /v1/runs/{id}
// series instead of exploding cardinality.
type HTTPShell struct {
	prefix string
	clock  clock.Clock
	log    *slog.Logger
	routes sync.Map // route pattern -> *routeTele
}

// NewHTTPShell builds a shell whose metric families are named
// <prefix>_http_*. clk is the clock latencies are read from;
// accessLog, when non-nil, receives one line per request.
func NewHTTPShell(prefix string, clk clock.Clock, accessLog *slog.Logger) *HTTPShell {
	return &HTTPShell{prefix: prefix, clock: clk, log: accessLog}
}

// routeTele caches one route's metric handles so a request costs one
// sync.Map load instead of a registry lookup.
type routeTele struct {
	seconds *obs.Histogram
	byCode  sync.Map // status code (int) -> *obs.Counter
}

func (h *HTTPShell) teleFor(route string) *routeTele {
	if t, ok := h.routes.Load(route); ok {
		return t.(*routeTele)
	}
	t := &routeTele{seconds: obs.Default.Histogram(h.prefix+"_http_request_seconds",
		"HTTP request latency by route pattern.", obs.Seconds, "route", route)}
	actual, _ := h.routes.LoadOrStore(route, t)
	return actual.(*routeTele)
}

func (h *HTTPShell) counter(t *routeTele, route string, code int) *obs.Counter {
	if c, ok := t.byCode.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default.Counter(h.prefix+"_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", route, "code", strconv.Itoa(code))
	actual, _ := t.byCode.LoadOrStore(code, c)
	return actual.(*obs.Counter)
}

// statusWriter records the response status for Instrument. It must
// implement http.Flusher: the SSE endpoints stream through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps a mux with the shell's telemetry and access log.
// r.Pattern is populated by ServeMux on the same request value, so it
// is readable here after ServeHTTP returns.
func (h *HTTPShell) Instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := h.clock.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		dur := h.clock.Now() - start
		t := h.teleFor(route)
		t.seconds.Observe(dur)
		h.counter(t, route, sw.status).Inc()
		if h.log != nil {
			attrs := []any{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("dur", time.Duration(dur)),
			}
			if id := r.PathValue("id"); id != "" {
				attrs = append(attrs, slog.String("job", id))
			}
			h.log.Info("access", attrs...)
		}
	})
}

// MountProbes mounts the three unversioned-contract endpoints both
// servers answer identically: GET /healthz (bare-text liveness, the
// probe load balancers, CI and benchmark/ poll), GET /metrics (the
// Prometheus text exposition of the process-wide registry plus a fixed
// set of runtime/metrics samples; beforeScrape, when non-nil, refreshes
// sampled gauges first) and GET /v1/version (the version body as JSON).
func (h *HTTPShell) MountProbes(mux *http.ServeMux, version map[string]string, beforeScrape func()) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if beforeScrape != nil {
			beforeScrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default.WritePrometheus(w); err != nil {
			return // client went away; nothing to salvage
		}
		_ = obs.WriteRuntimeMetrics(w)
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, version)
	})
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encodeJSON(w, v)
}

// encodeJSON is the one JSON encoding the serving tier emits: no HTML
// escaping, so "<" and "&" in a job's error read the same through
// fdagate as from the replica, and a trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// WriteError writes the {"error": msg} body every endpoint uses.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// MaxBodyBytes is the one request-body limit of the serving tier, the
// same on fdagate and fdaserve: a submission is a few hundred bytes.
const MaxBodyBytes = 1 << 20

// ReadBody reads a request body of at most MaxBodyBytes. A larger body is
// a 413 naming the limit, never a truncated prefix read as the request,
// and a failed read is a 400; on false the response is written.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", MaxBodyBytes))
	case err != nil:
		WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
	}
	return body, err == nil
}
