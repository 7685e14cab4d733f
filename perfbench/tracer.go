package main

import (
	"encoding/json"
	"os"
	"path"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"rbay/internal/core"
	"rbay/internal/metrics"
	"rbay/internal/store"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// The tracer times calls into each layer's public functions and interfaces
// from outside the program: a decorator over the transport (handler, Send,
// timers), a timed wire round trip, and a decorator over the durable store.
// It also keeps spans in memory and writes them out when the run ends.

// layerAgg accumulates count and busy time for one bucket.
type layerAgg struct {
	n    uint64
	busy time.Duration
	durs []float64 // µs, kept when percentiles are wanted
}

// tracer is safe for concurrent use: tcpnet runs one dispatch goroutine per
// endpoint, and the gateway and store are called from HTTP goroutines.
type tracer struct {
	mu     sync.Mutex
	layers map[string]*layerAgg // handler time by payload layer
	types  map[string]uint64    // handler deliveries by layer.type

	timers     layerAgg
	sends      layerAgg
	wire       layerAgg
	wireBytes  atomic.Uint64
	appends    layerAgg
	appendKind map[string]uint64

	spans  []span
	nextID atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layerAgg{}, types: map[string]uint64{}, appendKind: map[string]uint64{}}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layers, t.types, t.appendKind = map[string]*layerAgg{}, map[string]uint64{}, map[string]uint64{}
	t.timers, t.sends, t.wire, t.appends = layerAgg{}, layerAgg{}, layerAgg{}, layerAgg{}
	t.wireBytes.Store(0)
	t.spans = nil
}

// span is one timed interval. Spans of one query or op share Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// addSpan records a span and returns its id for children to cite.
func (t *tracer) addSpan(trace, name string, parent uint64, start, end time.Time) uint64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
	return id
}

// writeSpans dumps every span as JSON lines.
func (t *tracer) writeSpans(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// payloadLayer names the package of the innermost payload a message
// carries (pastry envelopes carry scribe messages, which carry core
// messages), and that payload's type name.
func payloadLayer(msg any) (layer, typ string) {
	for depth := 0; depth < 6 && msg != nil; depth++ {
		rt := reflect.TypeOf(msg)
		rv := reflect.ValueOf(msg)
		if rt.Kind() == reflect.Pointer {
			if rv.IsNil() {
				break
			}
			rt, rv = rt.Elem(), rv.Elem()
		}
		if rt.PkgPath() == "" {
			break // a builtin payload (string, number): keep the enclosing layer
		}
		layer, typ = path.Base(rt.PkgPath()), rt.Name()
		if rt.Kind() != reflect.Struct {
			break
		}
		var inner any
		for _, f := range []string{"Payload", "Body"} {
			if fv := rv.FieldByName(f); fv.IsValid() && fv.Kind() == reflect.Interface && !fv.IsNil() && fv.CanInterface() {
				inner = fv.Interface()
				break
			}
		}
		msg = inner
	}
	return layer, typ
}

func (a *layerAgg) add(d time.Duration, keep bool) {
	a.n++
	a.busy += d
	if keep {
		a.durs = append(a.durs, us(d))
	}
}

// wrapHandler times every delivery, bucketed by payload layer.
func (t *tracer) wrapHandler(h transport.Handler) transport.Handler {
	return func(from transport.Addr, msg any) {
		start := time.Now()
		h(from, msg)
		d := time.Since(start)
		layer, typ := payloadLayer(msg)
		t.mu.Lock()
		a := t.layers[layer]
		if a == nil {
			a = &layerAgg{}
			t.layers[layer] = a
		}
		a.add(d, false)
		t.types[layer+"."+typ]++
		t.mu.Unlock()
	}
}

// network decorates a transport.Network so every endpoint it creates is
// traced.
type network struct {
	inner transport.Network
	t     *tracer
}

func (n network) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.NewEndpoint(addr, n.t.wrapHandler(h))
	if err != nil {
		return nil, err
	}
	return &endpoint{Endpoint: ep, t: n.t}, nil
}

type endpoint struct {
	transport.Endpoint
	t *tracer
}

func (e *endpoint) Send(to transport.Addr, msg any) error {
	start := time.Now()
	err := e.Endpoint.Send(to, msg)
	d := time.Since(start)
	e.t.mu.Lock()
	e.t.sends.add(d, true)
	e.t.mu.Unlock()
	return err
}

func (e *endpoint) After(d time.Duration, fn func()) transport.CancelFunc {
	return e.Endpoint.After(d, func() {
		start := time.Now()
		fn()
		took := time.Since(start)
		e.t.mu.Lock()
		e.t.timers.add(took, false)
		e.t.mu.Unlock()
	})
}

// roundtrip is wire.Roundtrip, timed and measuring the encoded size.
func (t *tracer) roundtrip(v any) (any, error) {
	start := time.Now()
	e := wire.GetEncoder()
	e.Value(v)
	if err := e.Err(); err != nil {
		wire.PutEncoder(e)
		return nil, err
	}
	b := e.Bytes()
	size := len(b)
	d := wire.NewDecoder(b)
	out := d.Value()
	err := d.Err()
	wire.PutEncoder(e)
	took := time.Since(start)
	t.wireBytes.Add(uint64(size))
	t.mu.Lock()
	t.wire.add(took, false)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// durable is the slice of *store.Log that core.Store and ops.Store use;
// tracedStore decorates it, timing every append (fsync included).
type durable interface {
	core.Store
	RecordOp(op store.StoredOp)
	RecordOpDelete(id string)
	SetMetrics(reg *metrics.Registry)
}

type tracedStore struct {
	inner durable
	t     *tracer
}

func (s tracedStore) time(kind string, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.appends.add(d, true)
	s.t.appendKind[kind]++
	s.t.mu.Unlock()
}

func (s tracedStore) RecordSet(name string, value any) {
	s.time("set", func() { s.inner.RecordSet(name, value) })
}
func (s tracedStore) RecordSetBatch(entries []store.BatchSet) {
	s.time("setbatch", func() { s.inner.RecordSetBatch(entries) })
}
func (s tracedStore) RecordDelete(name string) {
	s.time("delete", func() { s.inner.RecordDelete(name) })
}
func (s tracedStore) RecordAttach(name, script string) {
	s.time("attach", func() { s.inner.RecordAttach(name, script) })
}
func (s tracedStore) RecordReserve(queryID string, expires time.Time) {
	s.time("reserve", func() { s.inner.RecordReserve(queryID, expires) })
}
func (s tracedStore) RecordCommit(queryID string) {
	s.time("commit", func() { s.inner.RecordCommit(queryID) })
}
func (s tracedStore) RecordRelease(queryID string) {
	s.time("release", func() { s.inner.RecordRelease(queryID) })
}
func (s tracedStore) RecordOp(op store.StoredOp) {
	s.time("op", func() { s.inner.RecordOp(op) })
}
func (s tracedStore) RecordOpDelete(id string) {
	s.time("opdel", func() { s.inner.RecordOpDelete(id) })
}
func (s tracedStore) SetMetrics(reg *metrics.Registry) { s.inner.SetMetrics(reg) }
func (s tracedStore) Sync() error                      { return s.inner.Sync() }
func (s tracedStore) SyncInterval() time.Duration      { return s.inner.SyncInterval() }
func (s tracedStore) Close() error                     { return s.inner.Close() }
