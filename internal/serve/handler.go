package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/telemetry"
)

// ClassifyDocument is one document of a classify request.
type ClassifyDocument struct {
	// ID is an optional caller-chosen identifier echoed back in the
	// matching result.
	ID string `json:"id,omitempty"`
	// Text is the raw document text; the server tokenises it with the
	// same preprocessor the training corpus went through.
	Text string `json:"text"`
}

// ClassifyRequest is the POST /v1/classify body. Exactly one form must
// be used: the single-document form (Text, optionally ID) or the batch
// form (Documents).
type ClassifyRequest struct {
	ID        string             `json:"id,omitempty"`
	Text      string             `json:"text,omitempty"`
	Documents []ClassifyDocument `json:"documents,omitempty"`
	// Model and Version select the serving model; both default (empty
	// model resolves to the configured or sole default, empty version to
	// the model's latest). A snapshot-file server's only names are
	// SingleModelName/SingleModelVersion.
	Model   string `json:"model,omitempty"`
	Version string `json:"version,omitempty"`
	// Scores asks for per-category scores and thresholds decisions in
	// addition to the in-class category list.
	Scores bool `json:"scores,omitempty"`
}

// PredictionJSON is one category's decision in a classify response.
type PredictionJSON struct {
	Category string  `json:"category"`
	Score    float64 `json:"score"`
	InClass  bool    `json:"in_class"`
}

// DocResult is one document's classification.
type DocResult struct {
	ID string `json:"id,omitempty"`
	// Categories are the in-class categories in the corpus inventory
	// order (empty slice, not null, when none clear their threshold).
	Categories []string `json:"categories"`
	// Predictions carries every category's score when the request set
	// "scores": true.
	Predictions []PredictionJSON `json:"predictions,omitempty"`
}

// ClassifyResponse is the POST /v1/classify reply. ModelHash is the
// SHA-256 of the snapshot file that scored every document in Results —
// one hash, because the whole request is pinned to one model even when
// a hot-reload or cache eviction lands mid-flight. Model and Version
// name the resolved snapshot, so a request that left them to default
// learns what it was actually served by.
type ClassifyResponse struct {
	ModelHash string      `json:"model_hash"`
	Model     string      `json:"model"`
	Version   string      `json:"version"`
	Results   []DocResult `json:"results"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// decodeClassifyRequest parses and validates a classify body, returning
// the normalised document list. It rejects: malformed JSON, trailing
// data after the JSON value, mixing the single and batch forms, neither
// form, and batches beyond maxBatch. It is the fuzzing surface of the
// server — it must never panic, whatever the bytes.
func decodeClassifyRequest(r io.Reader, maxBatch int) (*ClassifyRequest, []ClassifyDocument, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ClassifyRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("invalid JSON: %w", err)
	}
	// A second value (or non-whitespace trailing garbage) means the
	// body was not one JSON document.
	if dec.More() {
		return nil, nil, errors.New("invalid JSON: trailing data after request object")
	}
	single := req.Text != ""
	switch {
	case single && req.Documents != nil:
		return nil, nil, errors.New(`use either "text" or "documents", not both`)
	case single:
		return &req, []ClassifyDocument{{ID: req.ID, Text: req.Text}}, nil
	case req.Documents == nil:
		return nil, nil, errors.New(`request needs "text" or "documents"`)
	case len(req.Documents) == 0:
		return nil, nil, errors.New(`"documents" must not be empty`)
	case len(req.Documents) > maxBatch:
		return nil, nil, fmt.Errorf(`"documents" has %d entries, limit is %d`, len(req.Documents), maxBatch)
	}
	return &req, req.Documents, nil
}

// tokenize turns request documents into corpus documents with the
// training-time preprocessor.
func (s *Server) tokenize(in []ClassifyDocument) []corpus.Document {
	docs := make([]corpus.Document, len(in))
	for i, d := range in {
		docs[i] = corpus.Document{ID: d.ID, Words: s.pre.Process(d.Text)}
	}
	return docs
}

// handleClassify is POST /v1/classify. The stage trace splits the
// request into decode (parse + tokenise, measured here), queue-wait and
// classify (measured by the worker, copied off the job after done
// closes), and write (response render + encode). Every exit path
// finishes the trace with the status it answered, so sampled JSONL
// records cover sheds and timeouts too.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	tr := s.stages.Begin()
	reqID := RequestIDFrom(r.Context())
	decodeStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, reqDocs, err := decodeClassifyRequest(body, s.cfg.MaxBatch)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			tr.Finish(reqID, 0, "", http.StatusRequestEntityTooLarge)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		tr.Finish(reqID, 0, "", http.StatusBadRequest)
		return
	}

	docs := s.tokenize(reqDocs)
	tr.Observe(telemetry.StageDecode, time.Since(decodeStart))

	// Pin the snapshot before queueing: a cold registry model loads here,
	// on the request goroutine under the request deadline, so a stampede
	// of cold requests never ties up scoring workers.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	snap, status, err := s.acquire(ctx, req.Model, req.Version)
	if err != nil {
		if status == http.StatusGatewayTimeout {
			s.met.timeouts.Inc()
		}
		writeError(w, status, err.Error())
		tr.Finish(reqID, len(reqDocs), "", status)
		return
	}

	j := &job{ctx: ctx, docs: docs, snap: snap, done: make(chan struct{})}
	if err := s.pool.submit(j); err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, err.Error())
		tr.Finish(reqID, len(reqDocs), "", http.StatusServiceUnavailable)
		return
	}

	select {
	case <-j.done:
	case <-ctx.Done():
		// The worker may still be scoring; it owns the job's fields, we
		// stop reading them. It will observe the expired context at its
		// next per-document check.
		s.met.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "classification timed out")
		tr.Finish(reqID, len(reqDocs), "", http.StatusGatewayTimeout)
		return
	}
	// done is closed: the job's fields are ours again. The worker
	// already observed queue-wait and classify into the stage
	// histograms; Record only copies them into this trace's record.
	tr.Record(telemetry.StageQueue, j.queueWait)
	tr.Record(telemetry.StageClassify, j.classifyDur)
	if j.err != nil {
		if errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled) {
			s.met.timeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, "classification timed out")
			tr.Finish(reqID, len(reqDocs), "", http.StatusGatewayTimeout)
			return
		}
		writeError(w, http.StatusInternalServerError, j.err.Error())
		tr.Finish(reqID, len(reqDocs), "", http.StatusInternalServerError)
		return
	}

	writeStart := time.Now()
	resp := ClassifyResponse{
		ModelHash: j.snap.Info.SHA256,
		Model:     j.snap.Name,
		Version:   j.snap.Version,
		Results:   make([]DocResult, len(j.results)),
	}
	for i, preds := range j.results {
		res := DocResult{ID: reqDocs[i].ID, Categories: []string{}}
		for _, p := range preds {
			if p.InClass {
				res.Categories = append(res.Categories, p.Category)
			}
		}
		if req.Scores {
			res.Predictions = make([]PredictionJSON, len(preds))
			for k, p := range preds {
				res.Predictions[k] = PredictionJSON{Category: p.Category, Score: p.Score, InClass: p.InClass}
			}
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
	tr.Observe(telemetry.StageWrite, time.Since(writeStart))
	tr.Finish(reqID, len(reqDocs), j.snap.Info.SHA256, http.StatusOK)
}

// HealthResponse is the GET /v1/healthz reply. The hash identifies the
// default model's latest version without loading it; Model and Version
// name it. With no resolvable default (several models, none configured)
// the identity fields stay empty — the server is still healthy, it just
// has no single identity.
type HealthResponse struct {
	Status    string `json:"status"`
	ModelHash string `json:"model_hash"`
	Model     string `json:"model,omitempty"`
	Version   string `json:"version,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := HealthResponse{Status: "ok"}
	resp.Model, resp.Version, resp.ModelHash, _ = s.registry.DefaultVersionInfo()
	writeJSON(w, http.StatusOK, resp)
}

// ModelzResponse is the GET /v1/modelz reply: the default model's
// snapshot hash, the catalog (the /v1/models view) and a point-in-time
// telemetry snapshot.
type ModelzResponse struct {
	ModelHash string `json:"model_hash"`
	ModelsResponse
	Metrics map[string]any `json:"metrics,omitempty"`
}

func (s *Server) handleModelz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := ModelzResponse{ModelsResponse: s.modelsResponse()}
	_, _, resp.ModelHash, _ = s.registry.DefaultVersionInfo()
	if s.cfg.Metrics != nil {
		ms := s.cfg.Metrics.Snapshot()
		resp.Metrics = map[string]any{
			"counters":   ms.Counters,
			"gauges":     ms.Gauges,
			"histograms": ms.Histograms,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	resp, err := s.Reload()
	if err != nil {
		s.cfg.Log.Error("reload failed", "err", err)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.cfg.Log.Info("reloaded", "models", resp.Models, "versions", resp.Versions, "skipped", resp.Skipped,
		"temp_dirs", resp.TempDirs, "sha256", resp.ModelHash, "changed", resp.Changed)
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// The response went over the wire (or the client is gone) — nothing
	// actionable remains, so the encode error is deliberately dropped.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// retryAfterSeconds renders the back-off hint, rounding up so a
// sub-second hint never becomes "Retry-After: 0".
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
