package serve

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
)

// RequestIDHeader is the header a request id arrives in and is echoed
// back on: clients that set it can correlate their logs with the
// server's trace records; clients that don't get a generated id.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds accepted client-supplied ids so a hostile
// header cannot bloat logs or trace records.
const maxRequestIDLen = 128

// reqIDPrefix makes ids from different server processes distinct: four
// random bytes drawn once at startup, then a process-local counter.
// (crypto/rand, not math/rand: nothing here needs reproducibility, and
// the global math/rand source is banned repo-wide by tdlint.)
var reqIDPrefix = func() string {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "00000000" // ids stay unique per process via the counter
	}
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Uint64

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}

// requestIDKey is the context key the request id travels under.
type requestIDKey struct{}

// RequestIDFrom returns the request id the middleware assigned, or ""
// outside a served request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// withRequestID gives every request an id: a client-supplied
// X-Request-ID (truncated to a sane bound) or a generated one. The id
// is echoed on the response header immediately — before the handler
// runs, so even 500s and panics carry it — and stored in the request
// context for handlers, trace records and panic logs.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// recoverPanics converts a panicking handler into a logged, counted 500
// instead of a killed connection. Without it a panic unwinds into
// net/http's connection-level recover: the client sees a reset with no
// response and no metric moves, so the request is silently lost to
// every count. Mounted inside InstrumentHandler so the 500 still lands in
// the per-route status counters.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.met.panics.Inc()
			s.cfg.Log.Error("handler panic",
				"request_id", RequestIDFrom(r.Context()),
				"path", r.URL.Path,
				"panic", fmt.Sprint(v),
				"stack", string(debug.Stack()))
			// Best effort: if the handler already wrote headers this
			// write fails silently, but the common panic-before-write
			// case gets a proper JSON 500.
			writeError(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}
