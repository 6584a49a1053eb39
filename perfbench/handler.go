package main

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// traceHeader asks the handler wrapper to record a span; its value is
// the id of the client span the handler span is a child of.
const traceHeader = "X-Perfbench-Trace"

// wrapHandler sits in front of server.Handler(). Once rec is set it
// records one span ("server.read", "server.upload" or "server.other")
// per request that carries traceHeader, tagged with the client's op id,
// and with faultOp set it flips one byte of the block served to that
// op, once.
type wrapHandler struct {
	next    http.Handler
	rec     atomic.Pointer[recorder]
	faultOp int64
	flipped atomic.Bool
	gmax    atomic.Int64
}

func (h *wrapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := int64(-1)
	if v := r.Header.Get(opHeader); v != "" {
		op, _ = strconv.ParseInt(v, 10, 64)
	}
	name := "server.other"
	switch {
	case r.Method == http.MethodPost:
		name = "server.upload"
	case strings.Contains(r.URL.Path, "/blocks/"):
		name = "server.read"
		if op >= 0 && op == h.faultOp && h.flipped.CompareAndSwap(false, true) {
			w = &flipWriter{ResponseWriter: w}
		}
	}
	parent, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
	rec := h.rec.Load()
	if err != nil || rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	rec.timed(parent, op, name, func(int64) { h.next.ServeHTTP(w, r) })
}

// sampleGoroutines keeps gmax at the highest goroutine count of the
// process seen, sampled every 5 ms, until the returned stop function is
// called.
func (h *wrapHandler) sampleGoroutines() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				n := int64(runtime.NumGoroutine())
				for {
					cur := h.gmax.Load()
					if n <= cur || h.gmax.CompareAndSwap(cur, n) {
						break
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// flipWriter flips the lowest bit of the first body byte.
type flipWriter struct {
	http.ResponseWriter
	done bool
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if !f.done && len(p) > 0 {
		f.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 1
		return f.ResponseWriter.Write(q)
	}
	return f.ResponseWriter.Write(p)
}
