package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// This file is fdaserve's trace-recording surface (DESIGN.md §13):
// with -record, every workload-relevant API request is journaled to a
// tracev1 file in admission order — sequence number and offset are
// assigned under the trace writer's lock, so concurrent handlers
// cannot interleave entries — and the file replays against any server
// via `fdaload -replay`. Recording reads the request before the
// handler runs and never blocks on it: a failed trace write disables
// recording, not the API.

// recordKind classifies a request into its workload kind before
// dispatch (mux patterns are not resolved yet at recording time, so
// the mapping is by method and literal path shape). Requests outside
// the workload surface — health, metrics, events streams, output —
// are not recorded: a trace captures load, not monitoring.
func recordKind(method, path string) (workload.Kind, bool) {
	switch method {
	case http.MethodPost:
		switch path {
		case "/v1/train":
			return workload.KindTrain, true
		case "/v1/runs":
			return workload.KindSweep, true
		}
	case http.MethodGet:
		switch {
		case path == "/v1/store":
			return workload.KindStore, true
		case path == "/v1/runs":
			return workload.KindStatus, true
		case strings.HasPrefix(path, "/v1/runs/"):
			rest := path[len("/v1/runs/"):]
			if !strings.Contains(rest, "/") {
				return workload.KindStatus, true
			}
			if strings.HasSuffix(rest, "/records") {
				return workload.KindRecords, true
			}
		}
	case http.MethodDelete:
		if strings.HasPrefix(path, "/v1/runs/") {
			return workload.KindCancel, true
		}
	}
	return "", false
}

// record wraps the API with the trace recorder. POST bodies are read
// once here, under the serving tier's size limit, and replayed to the
// handler from memory; only valid JSON bodies are journaled (a malformed
// body is the client's bug and gets its 400 from the handler — the trace
// stays replayable). A body over the limit is not replayed: the handler
// reads the same limit error and answers 413.
func (s *server) record(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The recorder check is per-request: tests (and a future runtime
		// toggle) wire it after routes() has built the chain.
		if kind, ok := recordKind(r.Method, r.URL.Path); ok && s.recorder != nil {
			var body json.RawMessage
			if r.Method == http.MethodPost && r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes)
				if b, err := io.ReadAll(r.Body); err == nil {
					r.Body = io.NopCloser(bytes.NewReader(b))
					if json.Valid(b) {
						body = b
					}
				}
			}
			s.recorder.Record(kind, r.URL.Path, body)
		}
		next.ServeHTTP(w, r)
	})
}
