package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/serve"
	"temporaldoc/internal/telemetry"
)

// cmdServe runs the long-lived classification server over a persisted
// model snapshot (-model) or a model registry directory (-models-dir,
// multi-tenant: requests pick a model/version, cold models load lazily
// into a bounded resident cache).
//
// Lifecycle: SIGHUP (or POST /v1/reload) rescans: -models-dir is
// re-read, -model reloaded and swapped in atomically. SIGINT/SIGTERM
// stop accepting connections, drain in-flight requests for up to
// -drain, then exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "persisted model snapshot to serve (as the one-entry registry default/current)")
	modelsDir := fs.String("models-dir", "", "model registry directory to serve (multi-tenant; mutually exclusive with -model)")
	defaultModel := fs.String("default-model", "", "model unnamed requests resolve to under -models-dir (default: the sole published model)")
	resident := fs.Int("resident", 0, "max models resident at once under -models-dir (default 4)")
	residentBytes := fs.Int64("resident-bytes", 0, "max summed snapshot bytes resident under -models-dir (0 = unlimited)")
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	method := fs.String("method", "", "require the snapshot's feature-selection method (df, ig, mi, nouns, chi; empty accepts any)")
	kernel := fs.String("kernel", "", "level-2 encode kernel: float64 (default) or float32 (opt-in reduced precision)")
	workers := fs.Int("workers", 0, "classification worker count (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued-request bound before 503s (default 64)")
	maxBatch := fs.Int("max-batch", 0, "documents per batch request (default 64)")
	maxBody := fs.Int64("max-body", 0, "request body byte limit (default 1 MiB)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline before 504")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown connection drain budget")
	traceSample := fs.Int("trace-sample", 0, "emit every Nth request as a JSONL trace record to -trace-events (0 disables)")
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m featsel.Method
	if *method != "" {
		var err error
		if m, err = methodByName(*method); err != nil {
			return err
		}
	}
	ts, err := tf.start()
	if err != nil {
		return err
	}
	defer ts.close()
	// Serving always records metrics — the registry backs /v1/modelz —
	// even when no telemetry flag asked for a snapshot file.
	reg := ts.reg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	if *traceSample > 0 && ts.events == nil {
		return errors.New("-trace-sample needs -trace-events to write the records to")
	}

	// -model has a default; next to -models-dir it only counts when the
	// user actually set it (then the two conflict).
	mp := *modelPath
	if *modelsDir != "" {
		modelSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "model" {
				modelSet = true
			}
		})
		if !modelSet {
			mp = ""
		}
	}

	srv, err := serve.New(serve.Config{
		ModelPath:        mp,
		ModelsDir:        *modelsDir,
		DefaultModel:     *defaultModel,
		Resident:         *resident,
		ResidentBytes:    *residentBytes,
		Method:           m,
		Kernel:           *kernel,
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxBatch:         *maxBatch,
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *timeout,
		Metrics:          reg,
		Log:              ts.log,
		Trace:            ts.events,
		TraceSampleEvery: *traceSample,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// Signals are caught before the address is announced: a caller that
	// sends SIGTERM as soon as it reads the line below gets a drain, not
	// the default kill.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigCh)
	// Scripted callers (serve-smoke, examples) parse this line to find
	// the bound port, so it goes to stdout, not the logger.
	fmt.Printf("serving on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	for {
		select {
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if rr, err := srv.Reload(); err != nil {
					ts.log.Error("SIGHUP reload failed; previous models keep serving", "err", err)
				} else {
					ts.log.Info("SIGHUP reload done", "models", rr.Models, "versions", rr.Versions,
						"skipped", rr.Skipped, "sha256", rr.ModelHash, "changed", rr.Changed)
				}
				continue
			}
			ts.log.Info("shutting down", "signal", sig.String(), "drain", *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			err := hs.Shutdown(ctx)
			cancel()
			<-serveErr // Serve has returned ErrServerClosed by now
			srv.Close()
			if err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			return nil
		case err := <-serveErr:
			srv.Close()
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
