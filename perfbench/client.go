package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/serve"
)

// requestDoc is one document a client sends: its raw newswire text as
// the request body, and its labels for scoring the reply.
type requestDoc struct {
	id     string
	text   string
	labels []string
	body   []byte // the POST /v1/classify JSON
}

// requestDocs renders a corpus to Reuters SGML and sends each parsed
// body as request text, markup noise included, so the server's
// tokeniser does the work it does on real newswire.
func requestDocs(c *corpus.Corpus, renderSeed int64) ([]requestDoc, error) {
	var buf bytes.Buffer
	if err := reuters.RenderSGML(&buf, c, renderSeed); err != nil {
		return nil, err
	}
	raws, err := reuters.ParseSGML(&buf)
	if err != nil {
		return nil, err
	}
	docs := make([]requestDoc, len(raws))
	for i, raw := range raws {
		body, err := json.Marshal(serve.ClassifyRequest{ID: raw.NewID, Text: raw.Body})
		if err != nil {
			return nil, err
		}
		docs[i] = requestDoc{id: raw.NewID, text: raw.Body, labels: raw.Topics, body: body}
	}
	return docs, nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	doc        *requestDoc
	reqID      string
	start, end time.Time
	status     int
	body       []byte // set when the phase keeps bodies
	err        error
	trace      *replyTrace // set on traced requests only
}

// replyTrace holds a traced request's httptrace timestamps.
type replyTrace struct {
	getConn, gotConn, wrote, firstByte time.Time
	reused                             bool
}

func (p *reply) latency() time.Duration { return p.end.Sub(p.start) }

// client is the one load-generating client: a keep-alive transport with
// at most conns connections to the server.
type client struct {
	hc       *http.Client
	classify string
	sha      string // the served snapshot's sha256
	needle   []byte // `"model_hash":"<sha>"`, checked in every reply
	issued   atomic.Int64
}

func newClient(base, sha string, conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
				IdleConnTimeout:     5 * time.Minute,
			},
		},
		classify: base + "/v1/classify",
		sha:      sha,
		needle:   []byte(`"model_hash":"` + sha + `"`),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one classify request and reads the whole reply.
func (c *client) do(doc *requestDoc, traced, keepBody bool) reply {
	p := reply{doc: doc, reqID: "pb-" + strconv.FormatInt(c.issued.Add(1), 10)}
	ctx := context.Background()
	if traced {
		t := &replyTrace{}
		p.trace = t
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { t.getConn = time.Now() },
			GotConn: func(i httptrace.GotConnInfo) {
				t.gotConn = time.Now()
				t.reused = i.Reused
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { t.wrote = time.Now() },
			GotFirstResponseByte: func() { t.firstByte = time.Now() },
		})
	}
	p.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.classify, bytes.NewReader(doc.body))
	if err != nil {
		p.err = err
		return p
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", p.reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		p.err, p.end = err, time.Now()
		return p
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.end = time.Now()
	p.status, p.err = resp.StatusCode, err
	if err == nil && p.status == http.StatusOK && !bytes.Contains(body, c.needle) {
		p.err = fmt.Errorf("reply to %s does not carry the snapshot's model_hash: %.200s", doc.id, body)
	}
	if keepBody {
		p.body = body
	}
	return p
}

// failure is nil for a 200 reply carrying the snapshot hash.
func (p *reply) failure() error {
	switch {
	case p.err != nil:
		return fmt.Errorf("request %s (%s): %w", p.reqID, p.doc.id, p.err)
	case p.status != http.StatusOK:
		return fmt.Errorf("request %s (%s): HTTP %d", p.reqID, p.doc.id, p.status)
	}
	return nil
}

// sequence hands out documents in a fixed order shared by all
// connections: the pool in order, or the hot set round and round.
type sequence struct {
	docs []requestDoc
	next atomic.Int64
}

func (s *sequence) take() *requestDoc {
	i := s.next.Add(1) - 1
	return &s.docs[int(i%int64(len(s.docs)))]
}

// driveOpts bounds one closed-loop phase: it stops at the deadline, or
// after n requests when n > 0.
type driveOpts struct {
	conns    int
	deadline time.Time
	n        int64
	traced   bool
	keepBody bool
}

// drive runs a closed loop: each of conns goroutines sends its next
// request when its previous reply has been read, and hands each reply to
// keep, which copies what the phase needs. keep runs on the connection's
// goroutine with the connection's index, so it may write
// per-connection state without locking. drive returns once every
// goroutine has its last reply, so nothing is in flight afterwards.
func (c *client) drive(seq *sequence, o driveOpts, keep func(conn int, p *reply)) {
	var sent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < o.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				if o.n > 0 {
					if sent.Add(1) > o.n {
						return
					}
				} else if !time.Now().Before(o.deadline) {
					return
				}
				p := c.do(seq.take(), o.traced, o.keepBody)
				keep(g, &p)
			}
		}(g)
	}
	wg.Wait()
}
