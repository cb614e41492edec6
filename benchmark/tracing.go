package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gocast/internal/store"
)

// span is one timed step recorded by the benchmark around a call into the
// program. Spans of one message (or one set-up) share Trace; Parent links
// a span to the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. One log belongs to one
// goroutine; logs made with distinct bases hand out distinct span IDs, so the
// per-goroutine logs of a run merge without renumbering. A nil log records
// nothing, which is how untraced runs skip span work.
type spanLog struct {
	origin time.Time
	next   uint64
	spans  []span
}

func newSpanLog(origin time.Time, base uint64) *spanLog {
	return &spanLog{origin: origin, next: base << 40}
}

// add records a span from start to end and returns its ID (0 when nil).
func (l *spanLog) add(parent uint64, trace, name string, node int, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.next++
	l.spans = append(l.spans, span{
		ID: l.next, Parent: parent, Trace: trace, Name: name, Node: node,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)),
	})
	return l.next
}

// addID records a span under a caller-chosen ID, for spans whose children
// are recorded on other goroutines before this span's log is merged.
func (l *spanLog) addID(id, parent uint64, trace, name string, node int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name, Node: node,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)),
	})
}

// traceDir is where traced runs leave their spans and CPU profiles,
// relative to the checkout root the benchmark runs from.
const traceDir = ".bench_build/trace"

// writeSpans writes every log's spans as JSON lines and returns the path.
func writeSpans(name string, logs ...*spanLog) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Store operations timed by timedStore, in report order.
const (
	opPut = iota
	opGet
	opHas
	opMarkStable
	opUnstable
	opDigest
	opRange
	opPutSymbol
	opGetSymbol
	opSymbolInfo
	opRangeSymbols
	opGC
	numStoreOps
)

var storeOpNames = [numStoreOps]string{
	"put", "get", "has", "mark_stable", "unstable", "digest", "range",
	"put_symbol", "get_symbol", "symbol_info", "range_symbols", "gc",
}

// storeTimes accumulates call counts and wall time per store operation,
// shared by every node's store (live nodes call concurrently).
type storeTimes struct {
	calls [numStoreOps]atomic.Int64
	ns    [numStoreOps]atomic.Int64
}

func (t *storeTimes) note(op int, start time.Time) {
	t.calls[op].Add(1)
	t.ns[op].Add(int64(time.Since(start)))
}

// report emits store.calls.<op> and store.ns_per_call.<op>; a nil t (an
// untraced run) reports zeros so every run prints the same metric set.
func (t *storeTimes) report(r *report) {
	for op, name := range storeOpNames {
		var calls, ns int64
		if t != nil {
			calls, ns = t.calls[op].Load(), t.ns[op].Load()
		}
		r.count("store.calls."+name, calls)
		r.per("store.ns_per_call."+name, "ns", safeDiv(float64(ns), float64(calls)))
	}
}

// newStoreHook returns a core.Config.NewStore hook that wraps the default
// in-memory store in a timing layer. The wrapper forwards every call
// unchanged, so protocol behaviour — and every simulated metric — is the
// same with and without it.
func newStoreHook(t *storeTimes) func(store.Limits) store.MessageStore {
	return func(l store.Limits) store.MessageStore {
		return &timedStore{inner: store.NewMemory(l), t: t}
	}
}

// timedStore times each MessageStore call. Range and RangeSymbols include
// the caller's visit callbacks, since the store drives them.
type timedStore struct {
	inner *store.Memory
	t     *storeTimes
}

func (s *timedStore) Put(id store.ID, p []byte, now time.Duration) bool {
	t0 := time.Now()
	ok := s.inner.Put(id, p, now)
	s.t.note(opPut, t0)
	return ok
}

func (s *timedStore) Get(id store.ID) ([]byte, bool) {
	t0 := time.Now()
	p, ok := s.inner.Get(id)
	s.t.note(opGet, t0)
	return p, ok
}

func (s *timedStore) Has(id store.ID) bool {
	t0 := time.Now()
	ok := s.inner.Has(id)
	s.t.note(opHas, t0)
	return ok
}

func (s *timedStore) MarkStable(id store.ID, now time.Duration) {
	t0 := time.Now()
	s.inner.MarkStable(id, now)
	s.t.note(opMarkStable, t0)
}

func (s *timedStore) Unstable(id store.ID) {
	t0 := time.Now()
	s.inner.Unstable(id)
	s.t.note(opUnstable, t0)
}

func (s *timedStore) Digest() []store.SourceRange {
	t0 := time.Now()
	d := s.inner.Digest()
	s.t.note(opDigest, t0)
	return d
}

// DigestAppend keeps core's allocation-free digest path, which it takes
// only when the store offers this method.
func (s *timedStore) DigestAppend(dst []store.SourceRange) []store.SourceRange {
	t0 := time.Now()
	d := s.inner.DigestAppend(dst)
	s.t.note(opDigest, t0)
	return d
}

func (s *timedStore) Range(source int32, low, high uint32, visit func(store.ID, []byte) bool) {
	t0 := time.Now()
	s.inner.Range(source, low, high, visit)
	s.t.note(opRange, t0)
}

func (s *timedStore) PutSymbol(id store.ID, idx int, data []byte, meta store.SymbolMeta, now time.Duration) bool {
	t0 := time.Now()
	ok := s.inner.PutSymbol(id, idx, data, meta, now)
	s.t.note(opPutSymbol, t0)
	return ok
}

func (s *timedStore) GetSymbol(id store.ID, idx int) ([]byte, bool) {
	t0 := time.Now()
	d, ok := s.inner.GetSymbol(id, idx)
	s.t.note(opGetSymbol, t0)
	return d, ok
}

func (s *timedStore) SymbolInfo(id store.ID) (store.SymbolMeta, store.SymbolSet, bool) {
	t0 := time.Now()
	m, h, ok := s.inner.SymbolInfo(id)
	s.t.note(opSymbolInfo, t0)
	return m, h, ok
}

func (s *timedStore) RangeSymbols(id store.ID, visit func(int, []byte) bool) {
	t0 := time.Now()
	s.inner.RangeSymbols(id, visit)
	s.t.note(opRangeSymbols, t0)
}

func (s *timedStore) GC(now time.Duration) store.GCResult {
	t0 := time.Now()
	r := s.inner.GC(now)
	s.t.note(opGC, t0)
	return r
}

func (s *timedStore) Len() int                   { return s.inner.Len() }
func (s *timedStore) Bytes() int64               { return s.inner.Bytes() }
func (s *timedStore) Counters() map[string]int64 { return s.inner.Counters() }

// traceFile names a traced run's output files.
func traceFile(o options) string { return fmt.Sprintf("%s-seed%d", o.workload, o.seed) }
