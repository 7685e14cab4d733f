package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rbay/internal/core"
	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/query"
	"rbay/internal/scribe"
	"rbay/internal/simnet"
	"rbay/internal/sites"
	"rbay/internal/transport"
	"rbay/internal/workload"
)

// fig9-sim inputs: the paper's §IV-C macro workload at the scale the
// repository's experiments run it (internal/experiments.Quick).
const (
	simNodesPerSite   = 24
	simK              = 3
	simExtraAttrs     = 5
	simQueriesPerCell = 12 // per origin and #sites
	simSpacing        = 250 * time.Millisecond
	simJitter         = 0.05
	simPassword       = "rbay-eval"
	// simReserveTTL is the node config's lease; the double-allocation
	// check allows a lapsed lease to be handed out again.
	simReserveTTL = 5 * time.Second
)

// simPolicy is the onGet handler the evaluation attaches to every node.
const simPolicy = `
AA = {Password = "rbay-eval"}
function onGet(caller, password)
    if password == AA.Password then
        return NodeId
    end
    return nil
end
`

func simNodeConfig() core.Config {
	return core.Config{
		Scribe:             scribe.Config{AggregateInterval: time.Second},
		MembershipInterval: 2 * time.Second,
		ReserveTTL:         simReserveTTL,
		BackoffSlot:        50 * time.Millisecond,
	}
}

// simFed is a built simulated federation.
type simFed struct {
	net    *simnet.Network
	nodes  []*core.Node
	bySite map[string][]*core.Node
	byAddr map[transport.Addr]*core.Node
	runFor func(time.Duration)
	truth  simTruth
	// queries records every answered query for the checks.
	queries []simQuery
}

// buildSim assembles the eight-site federation with Table II latencies,
// agent noise, the EC2 catalog and the password policy, and settles it.
// Without a tracer it is core.NewFederation exactly as the experiments
// call it; with one, the same construction is spelled out so the
// transport can be decorated.
func buildSim(seed int64, tr *tracer) (*simFed, error) {
	reg := workload.BuildRegistry()
	cfg := core.FedConfig{
		Sites:         sites.EC2,
		NodesPerSite:  simNodesPerSite,
		Node:          simNodeConfig(),
		Seed:          seed,
		Jitter:        simJitter,
		SiteNoise:     sites.DefaultSiteNoise(),
		WireRoundtrip: true,
	}
	f := &simFed{bySite: map[string][]*core.Node{}, byAddr: map[transport.Addr]*core.Node{}}
	var settle func()
	if tr == nil {
		fed, err := core.NewFederation(reg, cfg)
		if err != nil {
			return nil, err
		}
		f.net, f.nodes, f.runFor, settle = fed.Net, fed.Nodes, fed.RunFor, fed.Settle
	} else {
		var err error
		settle, err = buildTracedSim(f, reg, cfg, tr)
		if err != nil {
			return nil, err
		}
	}
	f.truth = simTruth{
		Table:      map[string]attrs{},
		BySite:     map[string][]string{},
		Sites:      append([]string(nil), sites.EC2...),
		ReserveTTL: simReserveTTL,
		Jitter:     simJitter,
	}
	rng := rand.New(rand.NewSource(seed + 17))
	for _, n := range f.nodes {
		f.bySite[n.Site()] = append(f.bySite[n.Site()], n)
		f.byAddr[n.Addr()] = n
		spec := workload.PickType(rng)
		workload.Populate(n.Attributes(), spec, rng, simExtraAttrs)
		if err := n.AttachPolicy("instance_type", simPolicy); err != nil {
			return nil, err
		}
		key := n.Addr().String()
		f.truth.Table[key] = attrs{
			"instance_type": spec.Name, "instance_family": spec.Family,
			"vcpu": spec.VCPU, "mem_gb": spec.MemGB, "GPU": spec.GPU, "storage_gb": spec.StorageGB,
		}
		f.truth.BySite[n.Site()] = append(f.truth.BySite[n.Site()], key)
	}
	settle()
	return f, nil
}

// simFederations is how many independently seeded federations one run
// builds; rounds rotate over them, so a run's latency quantiles do not
// hang on one federation's draw of instance types.
const simFederations = 3

// buildSims builds the run's federations.
func buildSims(seed int64, tr *tracer) ([]*simFed, error) {
	var feds []*simFed
	for i := 0; i < simFederations; i++ {
		f, err := buildSim(seed*simFederations+int64(i), tr)
		if err != nil {
			return nil, err
		}
		feds = append(feds, f)
	}
	return feds, nil
}

// check runs the fig9-sim checks over every federation's queries.
func checkSims(feds []*simFed, rep *report, label string) {
	for i, f := range feds {
		for _, v := range checkSimQueries(f.queries, f.truth) {
			rep.violate("%sfederation %d: %s", label, i, v)
		}
	}
}

// buildTracedSim is core.NewFederation over a decorated transport, with the
// wire round trip timed.
func buildTracedSim(f *simFed, reg *naming.Registry, cfg core.FedConfig, tr *tracer) (func(), error) {
	model := sites.NewModel(cfg.Jitter, 0, cfg.Seed)
	model.SiteNoise = cfg.SiteNoise
	f.net = simnet.New(model)
	core.RegisterWire()
	f.net.SetTranscode(tr.roundtrip)
	netw := network{inner: f.net, t: tr}
	var overlay []*pastry.Node
	dir := core.Directory{Sites: append([]string(nil), cfg.Sites...), Routers: map[string][]transport.Addr{}}
	for _, site := range cfg.Sites {
		for i := 0; i < cfg.NodesPerSite; i++ {
			addr := transport.Addr{Site: site, Host: fmt.Sprintf("n%04d", i)}
			n, err := core.New(netw, addr, reg, cfg.Node)
			if err != nil {
				return nil, err
			}
			f.nodes = append(f.nodes, n)
			overlay = append(overlay, n.Pastry())
			if i < 2 {
				dir.Routers[site] = append(dir.Routers[site], addr)
			}
		}
	}
	pastry.Wire(overlay)
	for _, n := range f.nodes {
		n.SetDirectory(dir)
	}
	f.runFor = f.net.RunFor
	settle := func() {
		for _, n := range f.nodes {
			n.EvaluateMembershipNow()
		}
		f.runFor(2*time.Second + 8*cfg.Node.Scribe.AggregateInterval)
	}
	return settle, nil
}

// simRun is what one measured phase of fig9-sim produced.
type simRun struct {
	answered  int
	attempted int
	failed    int
	latencies []float64 // ms, virtual
	wall      time.Duration
	runWall   time.Duration // time inside the simulator's run loop
	traces    map[string][]leg
	parse     []float64 // µs per query.Parse of the rendered query text
	events    uint64
	allocs    uint64
	allocB    uint64
	hops      float64
	attempts  int
	cpu0      cpuTimes      // machine CPU times at the start of timing
	cpu       time.Duration // this process's CPU time over the run
}

// leg is one probe, anycast or backoff span of a query trace.
type leg struct {
	name       string
	start, end time.Time
}

// runSimRounds issues whole rounds of the macro workload — every origin,
// every #sites from 1 to 8, simQueriesPerCell queries each — until the
// wall-clock budget is spent, rotating over the federations. Each query's
// reservations are released as soon as it completes.
func runSimRounds(feds []*simFed, seed int64, budget time.Duration, tr *tracer) simRun {
	out := simRun{traces: map[string][]leg{}}
	gen := workload.NewGen(seed+99, sites.EC2)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ev0 uint64
	var hops0 float64
	for _, f := range feds {
		ev0 += f.net.Stats().EventsProcessed
		hops0 += anycastHops(f.nodes)
	}
	out.cpu0, _ = readCPUTimes()
	self0, _ := selfCPU()
	start := time.Now()
	for round := 0; ; round++ {
		f := feds[round%len(feds)]
		for numSites := 1; numSites <= len(sites.EC2); numSites++ {
			pending := 0
			for _, origin := range sites.EC2 {
				nodes := f.bySite[origin]
				for q := 0; q < simQueriesPerCell; q++ {
					issuer := nodes[(2+q*7)%len(nodes)]
					qry := gen.Composite(origin, numSites, simK)
					if tr != nil {
						text := qry.String()
						t0 := time.Now()
						if _, err := query.Parse(text); err != nil {
							out.failed++
						}
						out.parse = append(out.parse, us(time.Since(t0)))
					}
					pending++
					out.attempted++
					origin := origin
					issuer.Pastry().After(time.Duration(q)*simSpacing, func() {
						issued := issuer.Now()
						issuer.QueryAs(qry, "customer@"+origin, simPassword, func(r core.QueryResult) {
							pending--
							rec := simQuery{
								ID: r.QueryID, Origin: origin, Sites: qry.Sites, Preds: qry.Preds, K: qry.K,
								Issued: issued, Released: issuer.Now(), Latency: r.Elapsed, Shortfall: r.Shortfall,
							}
							for _, c := range r.Candidates {
								rec.Cands = append(rec.Cands, candidate{Site: c.Addr.Site, Host: c.Addr.Host})
								holder := ""
								if owner := f.byAddr[c.Addr]; owner != nil {
									holder, _, _ = owner.Reserved()
								}
								rec.Holders = append(rec.Holders, holder)
							}
							if r.Err != nil {
								out.failed++
							}
							out.answered++
							out.attempts += r.Attempts
							out.latencies = append(out.latencies, ms(r.Elapsed))
							if tr != nil && r.Trace != nil {
								out.traces[r.QueryID] = splitTrace(r)
							}
							f.queries = append(f.queries, rec)
							// Free reservations so later cells see the full pool.
							issuer.Release(r.QueryID, r.Candidates)
						})
					})
				}
			}
			t0 := time.Now()
			for i := 0; i < 1200 && pending > 0; i++ {
				f.runFor(100 * time.Millisecond)
			}
			out.failed += pending // never answered
			f.runFor(2 * time.Second)
			out.runWall += time.Since(t0)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	out.wall = time.Since(start)
	self1, _ := selfCPU()
	out.cpu = self1 - self0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	for _, f := range feds {
		out.events += f.net.Stats().EventsProcessed
		out.hops += anycastHops(f.nodes)
	}
	out.events -= ev0
	out.hops -= hops0
	return out
}

// rate is the queries answered per wall-clock second of the run.
func (r simRun) rate() float64 { return ratio(float64(r.answered), r.wall.Seconds()) }

// anycastHops sums the scribe anycast hop histogram over every node.
func anycastHops(nodes []*core.Node) float64 {
	var sum float64
	for _, n := range nodes {
		if h := n.Metrics().Histogram("scribe_anycast_hops"); h != nil {
			sum += h.Sum()
		}
	}
	return sum
}

// splitTrace reads the probe, anycast and backoff spans of a query trace.
func splitTrace(r core.QueryResult) []leg {
	var legs []leg
	for _, s := range r.Trace.FindAll("") {
		name := s.Name
		if strings.HasPrefix(name, "probe ") {
			name = "probe"
		}
		if name == "probe" || name == "anycast" || name == "backoff" {
			legs = append(legs, leg{name: name, start: s.Start, end: s.End})
		}
	}
	return legs
}

// runFig9 runs fig9-sim: build and settle (setup_s), then whole rounds for
// the budget, then the checks.
func runFig9(o options) (*report, error) {
	rep := newReport()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runFig9Traced(o, rep, budget)
	}
	feds, err := buildSims(o.seed, nil)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(procStart)
	// Set-up is single-threaded simulation, so it is timed as this
	// process's CPU time since it started: the work set-up does, which is
	// what moving work into set-up changes.
	setup, err := selfCPU()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heap := float64(m.HeapAlloc) / (1 << 20)

	run := runSimRounds(feds, o.seed, budget, nil)
	rep.attempted, rep.failed = run.attempted, run.failed
	checkSims(feds, rep, "")
	rep.set("setup_s", "s", setup.Seconds())
	rep.set("mem_mb", "MB", heap)
	fmt.Fprintf(os.Stderr, "fig9-sim: %d queries in %v (%d rounds of %d, %.0f/s, %.2fms CPU each), virtual latency p50 %.0fms p90 %.0fms, heap %.1f MB, setup %.2fs CPU, %.2fs wall; %s\n",
		run.answered, run.wall.Round(time.Millisecond), run.attempted/roundSize(), roundSize(), run.rate(), ratio(ms(run.cpu), float64(run.answered)),
		percentile(run.latencies, 50), percentile(run.latencies, 90), heap,
		setup.Seconds(), setupWall.Seconds(), stealSince(run.cpu0))
	return rep, nil
}

func roundSize() int { return len(sites.EC2) * len(sites.EC2) * simQueriesPerCell }

// runFig9Traced runs the workload twice in one process, on federations
// built without and then with the decorators, and reports the per-layer
// metrics of the traced run plus the tracing overhead.
func runFig9Traced(o options, rep *report, budget time.Duration) (*report, error) {
	plain, err := buildSims(o.seed, nil)
	if err != nil {
		return nil, err
	}
	base := runSimRounds(plain, o.seed, budget, nil)
	checkSims(plain, rep, "untraced ")
	plain = nil
	runtime.GC()

	tr := newTracer()
	feds, err := buildSims(o.seed, tr)
	if err != nil {
		return nil, err
	}
	tr.reset() // count the measured phase only, not build and settle
	run := runSimRounds(feds, o.seed, budget, tr)
	checkSims(feds, rep, "traced ")
	rep.attempted = base.attempted + run.attempted
	rep.failed = base.failed + run.failed

	nq := float64(run.answered)
	baseRate, rate := base.rate(), run.rate()
	handled := time.Duration(0)
	for _, a := range tr.layers {
		handled += a.busy
	}
	layer := func(name string) *layerAgg {
		if a := tr.layers[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	rep.set("simnet.events_per_query", "count", ratio(float64(run.events), nq))
	rep.set("simnet.self_us_per_query", "us", ratio(us(run.runWall-handled-tr.timers.busy), nq))
	rep.set("wire.roundtrip_us_per_query", "us", ratio(us(tr.wire.busy), nq))
	rep.set("wire.bytes_per_msg", "B", ratio(float64(tr.wireBytes.Load()), float64(tr.wire.n)))
	for _, l := range []string{"pastry", "scribe", "core"} {
		a := layer(l)
		rep.set(l+".msgs_per_query", "count", ratio(float64(a.n), nq))
		rep.set(l+".handle_us_per_query", "us", ratio(us(a.busy), nq))
	}
	rep.set("query.parse_us", "us", percentile(run.parse, 50))
	rep.set("go.allocs_per_query", "count", ratio(float64(base.allocs), float64(base.answered)))
	rep.set("go.alloc_bytes_per_query", "B", ratio(float64(base.allocB), float64(base.answered)))
	legs := map[string][]float64{}
	for _, t := range run.traces {
		for _, l := range t {
			legs[l.name] = append(legs[l.name], ms(l.end.Sub(l.start)))
		}
	}
	rep.set("query.probe_vms_p50", "ms", percentile(legs["probe"], 50))
	rep.set("query.anycast_vms_p50", "ms", percentile(legs["anycast"], 50))
	rep.set("query.backoff_vms_p50", "ms", percentile(legs["backoff"], 50))
	rep.set("query.attempts_per_query", "count", ratio(float64(run.attempts), nq))
	rep.set("scribe.anycast_hops_per_query", "count", ratio(run.hops, nq))
	rep.set("op.per_s", "1/s", base.rate())
	rep.set("op.p50_ms", "ms", percentile(base.latencies, 50))
	rep.set("op.p90_ms", "ms", percentile(base.latencies, 90))
	rep.set("op.p99_ms", "ms", percentile(base.latencies, 99))
	rep.set("trace.overhead_pct", "%", 100*ratio(baseRate-rate, baseRate))

	// Spans: one root per query, with its virtual-time probe, anycast and
	// backoff legs as children.
	for _, f := range feds {
		for _, q := range f.queries {
			root := tr.addSpan(q.ID, "query", 0, q.Issued, q.Issued.Add(q.Latency))
			for _, l := range run.traces[q.ID] {
				tr.addSpan(q.ID, l.name, root, l.start, l.end)
			}
		}
	}
	if err := tr.writeSpans(filepath.Join(o.work, "spans-"+o.workload+".jsonl")); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "fig9-sim traced: untraced %.0f q/s, traced %.0f q/s\n", baseRate, rate)
	return rep, nil
}
