package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rbay/internal/naming"
)

// gw-* inputs.
const (
	gwK            = 1                    // servers each reserve asks for
	gwMatches      = 2                    // servers the customers' query matches
	gwPoll         = 2 * time.Millisecond // GET /ops/{id} interval
	gwRetain       = 512                  // ops.Config default RetainTerminal
	gwPrefill      = gwRetain + 16        // ops per gateway before timing
	gwFeedRate     = 30                   // attrs batches per second, all daemons
	gwBatch        = 8                    // updates per batch
	gwSynthAttrs   = 6                    // churned synthetic attributes per node
	gwNoopShare    = 0.3                  // share of updates re-posting a value unchanged
	gwFlipEvery    = 90                   // one GPU flip per this many batches
	gwDrainTimeout = 30 * time.Second
	gwVisibleLimit = 15 * time.Second
	gwTree         = "GPU"
)

// opJSON is the gateway's op snapshot.
type opJSON struct {
	ID         string `json:"opId"`
	Kind       string `json:"kind"`
	State      string `json:"state"`
	Candidates []struct {
		NodeID string `json:"nodeId"`
		Site   string `json:"site"`
		Host   string `json:"host"`
	} `json:"candidates"`
	Shortfall int       `json:"shortfall"`
	Error     string    `json:"error"`
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
}

func (o opJSON) terminal() bool {
	return o.State == "done" || o.State == "failed" || o.State == "rolled-back"
}

func (o opJSON) cands() []candidate {
	var out []candidate
	for _, c := range o.Candidates {
		out = append(out, candidate{Site: c.Site, Host: c.Host})
	}
	return out
}

// client is one load source: it issues one request at a time over at
// most one kept-alive connection.
type client struct {
	hc *http.Client
	// submit and poll durations (ms), for the httpgw per-layer split.
	submitMs, pollMs []float64
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out.
func (c *client) do(method, u string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, u, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, u, err)
		}
	}
	return resp.StatusCode, nil
}

// submit posts one mutating call and returns the accepted op.
func (c *client) submit(base, path string, body any) (opJSON, error) {
	var op opJSON
	t0 := time.Now()
	_, err := c.do(http.MethodPost, base+path, body, &op)
	c.submitMs = append(c.submitMs, ms(time.Since(t0)))
	return op, err
}

// get polls one op once.
func (c *client) get(base, id string) (opJSON, error) {
	var op opJSON
	t0 := time.Now()
	_, err := c.do(http.MethodGet, base+"/ops/"+url.PathEscape(id), nil, &op)
	c.pollMs = append(c.pollMs, ms(time.Since(t0)))
	return op, err
}

// wait polls an op every gwPoll until it is terminal.
func (c *client) wait(base, id string) (opJSON, time.Time, error) {
	deadline := time.Now().Add(gwDrainTimeout)
	for {
		time.Sleep(gwPoll)
		op, err := c.get(base, id)
		if err != nil {
			return op, time.Now(), err
		}
		if op.terminal() {
			return op, time.Now(), nil
		}
		if time.Now().After(deadline) {
			return op, time.Now(), fmt.Errorf("op %s still %s after %v", id, op.State, gwDrainTimeout)
		}
	}
}

type queryJSON struct {
	QueryID    string `json:"queryId"`
	Candidates []struct {
		NodeID string `json:"nodeId"`
		Site   string `json:"site"`
		Host   string `json:"host"`
	} `json:"candidates"`
	Error string `json:"error"`
}

// selectAll runs SELECT * over the family tree at one site's gateway,
// releases what it reserved, and returns the hosts it found.
func (c *client) selectAll(n *gwNode) ([]candidate, error) {
	q := fmt.Sprintf(`SELECT * FROM %s WHERE instance_family = "c3";`, n.site)
	var res queryJSON
	if _, err := c.do(http.MethodGet, n.base+"/query?q="+url.QueryEscape(q), nil, &res); err != nil {
		return nil, err
	}
	var out []candidate
	for _, x := range res.Candidates {
		out = append(out, candidate{Site: x.Site, Host: x.Host})
	}
	if len(res.Candidates) > 0 {
		op, err := c.submit(n.base, "/release", map[string]any{"queryId": res.QueryID, "candidates": res.Candidates})
		if err != nil {
			return nil, err
		}
		if op, _, err = c.wait(n.base, op.ID); err != nil || op.State != "done" {
			return nil, fmt.Errorf("release of %s: %s %v", res.QueryID, op.State, err)
		}
	}
	return out, nil
}

// scrape reads and merges every gateway's /metrics page.
func scrape(c *client, nodes []*gwNode) (promScrape, error) {
	all := promScrape{}
	for _, n := range nodes {
		resp, err := c.hc.Get(n.base + "/metrics")
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		s, err := parseProm(string(raw))
		if err != nil {
			return nil, err
		}
		all.merge(s)
	}
	return all, nil
}

// gwRun is what one measured phase of a gw-* workload produced.
type gwRun struct {
	attempted, failed int
	doneSeen          int
	cycles            int
	wall              time.Duration // customers' measured window
	reserveMs         []float64     // submit → seen terminal
	commitMs          []float64
	attrMs            []float64 // scheduled send → seen done
	visibleMs         []float64
	lateMs            []float64
	serverMs          map[string][]float64 // op kind → updated−created
	submitMs, pollMs  []float64
	updates           int
	before, after     promScrape
	setup             time.Duration // wall time from t0 until queryable
	setupCPU          time.Duration // CPU time of this process and the federation until then
	opCPU             time.Duration // federation CPU time from the start of timing to the drain
	cpu0              cpuTimes      // machine CPU times at the start of timing
	violations        []string
	// traced runs only: transport batching and the span sink.
	batchFrames, batchedMsgs uint64
	tr                       *tracer
}

// rate is the customers' completed cycles per second of the measured window.
func (r *gwRun) rate() float64 { return ratio(float64(r.cycles), r.wall.Seconds()) }

func (r *gwRun) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// gwState tracks what the benchmark posted, for the last-write and
// tree-count checks.
type gwState struct {
	mu    sync.Mutex
	nodes []*gwNode
	cur   []attrs // current posted value per node
}

func (s *gwState) gpuCount(site string) int64 {
	var n int64
	for i, nd := range s.nodes {
		if nd.site == site && s.cur[i]["GPU"] == true {
			n++
		}
	}
	return n
}

// customerQuery is the reserve each customer loops on: k servers of the
// site's family whose vcpu is at least the site's gwMatches-th largest.
// Sites hold distinct types in ascending vcpu order, so exactly n2 and n3
// match: the gateway node n1 never does, so every reservation crosses
// tcpnet, and two customers asking for one each compete for the same two.
func customerQuery(nodes []*gwNode, site string) (string, []naming.Pred) {
	var v []float64
	for _, n := range nodes {
		if n.site == site {
			x, _ := toFloat(n.attrs["vcpu"])
			v = append(v, x)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(v)))
	min := v[gwMatches-1]
	q := fmt.Sprintf(`SELECT %d FROM %s WHERE instance_family = "c3" AND vcpu >= %g;`, gwK, site, min)
	return q, []naming.Pred{
		{Attr: "instance_family", Op: naming.OpEq, Value: "c3"},
		{Attr: "vcpu", Op: naming.OpGe, Value: min},
	}
}

// customer loops reserve→commit→release through one gateway until the
// deadline, finishing the cycle in progress.
type customer struct {
	name  string
	gw    *gwNode
	query string
	preds []naming.Pred
	c     *client
	holds []hold
	run   *gwRun
	mu    *sync.Mutex // guards run
}

func (cu *customer) loop(deadline time.Time, table map[string]attrs) {
	for time.Now().Before(deadline) {
		cu.cycle(table)
	}
}

// step submits one op and waits for it, recording latency and outcome.
func (cu *customer) step(path string, body any, lat *[]float64) (opJSON, time.Time, bool) {
	t0 := time.Now()
	op, err := cu.c.submit(cu.gw.base, path, body)
	var seen time.Time
	if err == nil {
		op, seen, err = cu.c.wait(cu.gw.base, op.ID)
	}
	cu.mu.Lock()
	defer cu.mu.Unlock()
	cu.run.attempted++
	if err != nil || op.State != "done" {
		cu.run.failed++
		cu.run.violate("%s %s: state %q err %v %s", cu.name, path, op.State, err, op.Error)
		return op, seen, false
	}
	cu.run.doneSeen++
	*lat = append(*lat, ms(seen.Sub(t0)))
	if tr := cu.run.tr; tr != nil {
		root := tr.addSpan(op.ID, "op."+op.Kind, 0, t0, seen)
		tr.addSpan(op.ID, "ops.server", root, op.Created, op.Updated)
	}
	cu.run.serverMs[op.Kind] = append(cu.run.serverMs[op.Kind], ms(op.Updated.Sub(op.Created)))
	return op, seen, true
}

func (cu *customer) cycle(table map[string]attrs) {
	res, granted, ok := cu.step("/reserve", map[string]any{"query": cu.query, "caller": cu.name}, &cu.run.reserveMs)
	if !ok {
		return
	}
	cands := res.cands()
	cu.mu.Lock()
	for _, v := range checkCandidates(res.ID, cands, []string{cu.gw.site}, cu.preds, table) {
		cu.run.violate("%s", v)
	}
	if len(cands) != gwK || res.Shortfall != 0 {
		cu.run.violate("%s: reserve %s returned %d of %d (shortfall %d)", cu.name, res.ID, len(cands), gwK, res.Shortfall)
	}
	cu.mu.Unlock()
	if _, _, ok := cu.step("/commit", map[string]any{"fromOp": res.ID}, &cu.run.commitMs); !ok {
		return
	}
	released := time.Now()
	var discard []float64
	if _, _, ok := cu.step("/release", map[string]any{"fromOp": res.ID}, &discard); !ok {
		return
	}
	for _, c := range cands {
		cu.holds = append(cu.holds, hold{Owner: cu.name, Node: c.key(), From: granted, To: released})
	}
	cu.mu.Lock()
	cu.run.cycles++
	cu.mu.Unlock()
}

// feedOp is one attrs batch in flight.
type feedOp struct {
	id, base string
	due      time.Time
	flip     int // node index whose GPU flip the batch carries, or -1
	next     time.Time
}

// feed posts attrs batches to every gateway on a fixed schedule (open
// loop), polling its ops in the gaps. Batch i is due at start+i/rate and
// goes to node i mod N; its latency runs from that due time.
type feed struct {
	st   *gwState
	c    *client
	rng  *rand.Rand
	run  *gwRun
	mu   *sync.Mutex
	live []feedOp
	// visibility probe of the latest flip: site, expected count, due time.
	vis *visProbe
}

type visProbe struct {
	node     *gwNode
	want     int64
	due      time.Time
	nextPoll time.Time
}

// batch draws batch i for node idx and applies it to the posted state.
func (f *feed) batch(i, idx int) ([]map[string]any, bool) {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	cur := f.st.cur[idx]
	var ups []map[string]any
	for u := 0; u < gwBatch; u++ {
		name := synthName(f.rng.Intn(gwSynthAttrs))
		if f.rng.Float64() < gwNoopShare {
			ups = append(ups, map[string]any{"name": name, "value": cur[name]})
			continue
		}
		v := float64(f.rng.Intn(1000)) / 1000
		cur[name] = v
		ups = append(ups, map[string]any{"name": name, "value": v})
	}
	flip := flipBatch(i)
	if flip {
		g, _ := cur["GPU"].(bool)
		cur["GPU"] = !g
		ups = append(ups, map[string]any{"name": "GPU", "value": !g})
	}
	return ups, flip
}

// flipBatch reports whether batch i carries a GPU flip: one every
// gwFlipEvery batches, offset so successive flips land on successive nodes.
func flipBatch(i int) bool {
	j := i / (gwFlipEvery + 1)
	return i == j*(gwFlipEvery+1)+gwFlipEvery/2
}

func (f *feed) loop(start time.Time, total int) {
	period := time.Second / gwFeedRate
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * period)
		f.pollUntil(due)
		idx := i % len(f.st.nodes)
		n := f.st.nodes[idx]
		ups, flip := f.batch(i, idx)
		late := time.Since(due)
		op, err := f.c.submit(n.base, "/attrs", map[string]any{"updates": ups})
		f.mu.Lock()
		f.run.attempted++
		f.run.updates += len(ups)
		f.run.lateMs = append(f.run.lateMs, ms(late))
		if err != nil {
			f.run.failed++
			f.run.violate("attrs to %s: %v", n.addr(), err)
			f.mu.Unlock()
			continue
		}
		f.mu.Unlock()
		fo := feedOp{id: op.ID, base: n.base, due: due, flip: -1, next: time.Now().Add(gwPoll)}
		if flip {
			fo.flip = idx
		}
		f.live = append(f.live, fo)
	}
	f.pollUntil(time.Time{})
}

// pollUntil polls in-flight ops (and the visibility probe) until the
// deadline; a zero deadline drains everything instead.
func (f *feed) pollUntil(deadline time.Time) {
	drainBy := time.Now().Add(gwDrainTimeout)
	for {
		now := time.Now()
		if deadline.IsZero() {
			if len(f.live) == 0 && f.vis == nil {
				return
			}
			if now.After(drainBy) {
				f.mu.Lock()
				f.run.failed += len(f.live)
				f.run.violate("%d attrs ops not terminal after %v", len(f.live), gwDrainTimeout)
				f.mu.Unlock()
				return
			}
		} else if !now.Before(deadline) {
			return
		}
		// The earliest due poll, if any is due now.
		next := deadline
		pick := -1
		for i, o := range f.live {
			if !o.next.After(now) {
				pick = i
				break
			}
			if next.IsZero() || o.next.Before(next) {
				next = o.next
			}
		}
		if pick >= 0 {
			f.pollOp(pick)
			continue
		}
		if f.vis != nil {
			if !f.vis.nextPoll.After(now) {
				f.pollVisible()
				continue
			}
			if next.IsZero() || f.vis.nextPoll.Before(next) {
				next = f.vis.nextPoll
			}
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
}

func (f *feed) pollOp(i int) {
	o := f.live[i]
	op, err := f.c.get(o.base, o.id)
	if err == nil && !op.terminal() {
		f.live[i].next = time.Now().Add(gwPoll)
		return
	}
	seen := time.Now()
	f.live = append(f.live[:i], f.live[i+1:]...)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil || op.State != "done" || op.Error != "" {
		f.run.failed++
		f.run.violate("attrs op %s: state %q err %v %s", o.id, op.State, err, op.Error)
		return
	}
	f.run.doneSeen++
	f.run.attrMs = append(f.run.attrMs, ms(seen.Sub(o.due)))
	if tr := f.run.tr; tr != nil {
		root := tr.addSpan(op.ID, "op.attrs", 0, o.due, seen)
		tr.addSpan(op.ID, "ops.server", root, op.Created, op.Updated)
	}
	f.run.serverMs[op.Kind] = append(f.run.serverMs[op.Kind], ms(op.Updated.Sub(op.Created)))
	if o.flip >= 0 {
		n := f.st.nodes[o.flip]
		f.st.mu.Lock()
		want := f.st.gpuCount(n.site)
		f.st.mu.Unlock()
		// A newer flip supersedes an unfinished probe; its sample is lost.
		f.vis = &visProbe{node: n, want: want, due: o.due, nextPoll: seen}
	}
}

// pollVisible reads the flipped site's GPU tree size once.
func (f *feed) pollVisible() {
	v := f.vis
	count, err := treeCount(f.c, v.node)
	now := time.Now()
	if err == nil && count == v.want {
		f.mu.Lock()
		f.run.visibleMs = append(f.run.visibleMs, ms(now.Sub(v.due)))
		f.mu.Unlock()
		f.vis = nil
		return
	}
	if now.Sub(v.due) > gwVisibleLimit {
		f.vis = nil // checked at the end by the tree-count check
		return
	}
	v.nextPoll = now.Add(50 * time.Millisecond)
}

// runGateway runs gw-reserve-commit or gw-attr-churn: against spawned
// rbayd daemons by default, or twice in process (untraced, then traced)
// with -trace 1.
func runGateway(o options) (*report, error) {
	rep := newReport()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runGatewayTraced(o, rep, budget)
	}
	if o.rbayd == "" {
		return nil, fmt.Errorf("-rbayd is required for %s", o.workload)
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	nodes := planNodes(o.seed)
	stop, err := spawnDaemons(o, dir, nodes)
	if err != nil {
		return nil, err
	}
	daemonCPU := func() time.Duration {
		var sum time.Duration
		for _, n := range nodes {
			if c, err := procCPU(n.cmd.Process.Pid); err == nil {
				sum += c
			}
		}
		return sum
	}
	run, err := gatewayPhase(o, nodes, budget, procStart, daemonCPU, nil)
	var rss float64
	for _, n := range nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			if r, e := procPeakRSS(n.cmd.Process.Pid); e == nil {
				rss += r
			}
		}
	}
	stop()
	if err != nil {
		return nil, err
	}
	for _, v := range run.violations {
		rep.violate("%s", v)
	}
	rep.attempted, rep.failed = run.attempted, run.failed
	opMs := run.reserveMs
	if o.workload == "gw-attr-churn" {
		opMs = run.attrMs
	}
	rep.set("setup_s", "s", run.setupCPU.Seconds())
	rep.set("mem_mb", "MB", rss)
	fmt.Fprintf(os.Stderr, "%s: %d cycles (%.1f/s), %d reserve / %d attrs ops in %v; op p50 %.2fms p90 %.2fms; commit p50 %.2fms; federation CPU %.2fms per op; visible p50 %.0fms (%d); setup %.2fs CPU, %.2fs wall; %s\n",
		o.workload, run.cycles, run.rate(), len(run.reserveMs), len(run.attrMs), run.wall.Round(time.Millisecond),
		percentile(opMs, 50), percentile(opMs, 90), percentile(run.commitMs, 50), ratio(ms(run.opCPU), float64(run.doneSeen)),
		percentile(run.visibleMs, 50), len(run.visibleMs), run.setupCPU.Seconds(), run.setup.Seconds(), stealSince(run.cpu0))
	return rep, nil
}

// gatewayPhase drives one started federation: wait until every posted
// resource is queryable (the end of set-up), fill each used gateway's
// terminal-op retention, measure for the budget, drain, and check.
//
// fedCPU reports the CPU time the federation has used so far.
func gatewayPhase(o options, nodes []*gwNode, budget time.Duration, t0 time.Time, fedCPU func() time.Duration, tr *tracer) (*gwRun, error) {
	run := &gwRun{serverMs: map[string][]float64{}}
	table := map[string]attrs{}
	for _, n := range nodes {
		table[n.addr()] = n.attrs
	}
	helper := newClient()
	defer helper.close()
	if err := waitQueryable(helper, nodes, 60*time.Second); err != nil {
		return nil, err
	}
	run.setup = time.Since(t0)
	self, err := selfCPU()
	if err != nil {
		return nil, err
	}
	run.setupCPU = self + fedCPU()

	churn := o.workload == "gw-attr-churn"
	st := &gwState{nodes: nodes}
	for _, n := range nodes {
		cur := attrs{}
		for k, v := range n.attrs {
			cur[k] = v
		}
		st.cur = append(st.cur, cur)
	}
	// Every customer reserves at the first site through its first
	// gateway, so the customers compete for the same two servers.
	ncust := 2
	if churn {
		ncust = 1 // one customer beside the feed
	}
	var custs []*customer
	var mu sync.Mutex
	site, gw := gwSites[0], nodes[0]
	q, preds := customerQuery(nodes, site)
	for i := 1; i <= ncust; i++ {
		custs = append(custs, &customer{name: fmt.Sprintf("customer-%d", i), gw: gw, query: q, preds: preds, c: newClient(), run: run, mu: &mu})
	}
	used := []*gwNode{gw}
	if churn {
		used = nodes
	}
	if err := prefill(used); err != nil {
		return nil, err
	}

	if run.before, err = scrape(helper, nodes); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.reset() // count the measured window only
		run.tr = tr
	}
	run.cpu0, _ = readCPUTimes()
	fed0 := fedCPU()
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	var custEnd time.Time
	for _, cu := range custs {
		wg.Add(1)
		go func(cu *customer) {
			defer wg.Done()
			cu.loop(deadline, table)
			mu.Lock()
			if now := time.Now(); now.After(custEnd) {
				custEnd = now
			}
			mu.Unlock()
		}(cu)
	}
	if churn {
		f := &feed{st: st, c: newClient(), rng: rand.New(rand.NewSource(o.seed*131 + 3)), run: run, mu: &mu}
		total := int(budget.Seconds() * gwFeedRate)
		f.loop(start, total)
		f.c.close()
		run.submitMs = append(run.submitMs, f.c.submitMs...)
		run.pollMs = append(run.pollMs, f.c.pollMs...)
	}
	wg.Wait()
	run.wall = custEnd.Sub(start)
	run.opCPU = fedCPU() - fed0
	var holds []hold
	for _, cu := range custs {
		holds = append(holds, cu.holds...)
		run.submitMs = append(run.submitMs, cu.c.submitMs...)
		run.pollMs = append(run.pollMs, cu.c.pollMs...)
		cu.c.close()
	}
	// A gateway counts an op done only after its done record is on disk,
	// which can be after a client already saw it done; scrape until the
	// counts agree or a few seconds pass.
	for settle := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if run.after, err = scrape(helper, nodes); err != nil {
			return nil, err
		}
		if int(delta(run.before, run.after, "rbay_ops_done_total")) == run.doneSeen || time.Now().After(settle) {
			break
		}
	}

	// Checks.
	for _, v := range checkHolds(holds, 0) {
		run.violate("%s", v)
	}
	if got := int(delta(run.before, run.after, "rbay_ops_done_total")); got != run.doneSeen {
		run.violate("clients saw %d ops done, gateways counted %d", run.doneSeen, got)
	}
	if err := checkQueryable(helper, nodes); err != nil {
		run.violate("%v", err)
	}
	if churn {
		for i, n := range nodes {
			var got attrs
			if _, err := helper.do(http.MethodGet, n.base+"/attrs", nil, &got); err != nil {
				run.violate("GET /attrs at %s: %v", n.addr(), err)
				continue
			}
			for _, v := range checkLastWrite(n.addr(), st.cur[i], got) {
				run.violate("%s", v)
			}
		}
		run.violations = append(run.violations, waitTreeCounts(helper, st, gwVisibleLimit)...)
	}
	return run, nil
}

// waitQueryable polls until SELECT * at every site finds every posted
// resource of that site.
func waitQueryable(c *client, nodes []*gwNode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := checkQueryable(c, nodes)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("federation never became queryable: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkQueryable runs SELECT * at each site's first gateway and compares
// the hosts found with the site's posted resources.
func checkQueryable(c *client, nodes []*gwNode) error {
	for _, site := range gwSites {
		var want []string
		var gw *gwNode
		for _, n := range nodes {
			if n.site == site {
				want = append(want, n.addr())
				if gw == nil {
					gw = n
				}
			}
		}
		found, err := c.selectAll(gw)
		if err != nil {
			return err
		}
		var got []string
		for _, x := range found {
			got = append(got, x.key())
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("SELECT * at %s found %v, posted %v", site, got, want)
		}
	}
	return nil
}

// treeCount reads the size of the GPU tree at a node's site. A tree with
// no member has no root to answer, which the gateway reports as 404.
func treeCount(c *client, n *gwNode) (int64, error) {
	var res struct {
		Count int64 `json:"count"`
	}
	status, err := c.do(http.MethodGet, n.base+"/trees/"+gwTree, nil, &res)
	if status == http.StatusNotFound {
		return 0, nil
	}
	return res.Count, err
}

// waitTreeCounts waits for each site's GPU tree size to settle on the
// count the posted attributes give; once the limit passes, the mismatch
// is reported.
func waitTreeCounts(c *client, st *gwState, limit time.Duration) []string {
	deadline := time.Now().Add(limit)
	for {
		want, got := map[string]int64{}, map[string]int64{}
		for _, n := range st.nodes {
			if _, ok := want[n.site]; ok {
				continue
			}
			want[n.site] = st.gpuCount(n.site)
			if count, err := treeCount(c, n); err == nil {
				got[n.site] = count
			}
		}
		bad := checkTreeCounts(want, got)
		if len(bad) == 0 || time.Now().After(deadline) {
			return bad
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// prefill submits enough no-op attrs ops to each gateway that its
// terminal-op retention is full before timing starts, from two clients at
// a time, and waits until they are all terminal.
func prefill(gws []*gwNode) error {
	var wg sync.WaitGroup
	errs := make([]error, len(gws))
	sem := make(chan struct{}, 2)
	for i, n := range gws {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, n *gwNode) {
			defer wg.Done()
			defer func() { <-sem }()
			c := newClient()
			defer c.close()
			var last opJSON
			for j := 0; j < gwPrefill; j++ {
				up := map[string]any{"name": "instance_family", "value": n.attrs["instance_family"]}
				op, err := c.submit(n.base, "/attrs", map[string]any{"updates": []any{up}})
				if err != nil {
					errs[i] = err
					return
				}
				last = op
			}
			op, _, err := c.wait(n.base, last.ID)
			if err == nil && op.State != "done" {
				err = fmt.Errorf("prefill op %s: %s %s", op.ID, op.State, op.Error)
			}
			if err == nil {
				err = waitIdle(c, n)
			}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// waitIdle waits until a gateway has no pending or running op.
func waitIdle(c *client, n *gwNode) error {
	deadline := time.Now().Add(gwDrainTimeout)
	for time.Now().Before(deadline) {
		busy := 0
		for _, state := range []string{"pending", "running"} {
			var list []opJSON
			if _, err := c.do(http.MethodGet, n.base+"/ops?state="+state, nil, &list); err != nil {
				return err
			}
			busy += len(list)
		}
		if busy == 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s: ops still in flight after %v", n.addr(), gwDrainTimeout)
}

// runGatewayTraced is the traced mode: the federation wired in this
// process, run once plain and once with the decorators, each for half the
// budget; per-layer metrics come from the traced run.
func runGatewayTraced(o options, rep *report, budget time.Duration) (*report, error) {
	phase := func(tr *tracer) (*gwRun, time.Duration, error) {
		dir, err := os.MkdirTemp(o.work, "run-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		nodes := planNodes(o.seed)
		t0 := time.Now()
		live, stop, err := startInProcess(dir, nodes, tr)
		if err != nil {
			return nil, 0, err
		}
		defer stop()
		cpu0, _ := selfCPU()
		var stats0 []uint64
		for _, p := range live {
			s := p.net.Stats()
			stats0 = append(stats0, s.BatchFrames, s.BatchedMessages)
		}
		// The federation runs in this process, whose CPU selfCPU counts.
		inProcess := func() time.Duration { return 0 }
		run, err := gatewayPhase(o, nodes, budget/2, t0, inProcess, tr)
		if err != nil {
			return nil, 0, err
		}
		cpu1, _ := selfCPU()
		var frames, msgs uint64
		for i, p := range live {
			s := p.net.Stats()
			frames += s.BatchFrames - stats0[2*i]
			msgs += s.BatchedMessages - stats0[2*i+1]
		}
		run.batchFrames, run.batchedMsgs = frames, msgs
		return run, cpu1 - cpu0, nil
	}
	base, _, err := phase(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	run, cpu, err := phase(tr)
	if err != nil {
		return nil, err
	}
	for _, v := range base.violations {
		rep.violate("untraced: %s", v)
	}
	for _, v := range run.violations {
		rep.violate("traced: %s", v)
	}
	rep.attempted = base.attempted + run.attempted
	rep.failed = base.failed + run.failed

	nops := float64(run.doneSeen)
	d := func(name string) float64 { return delta(run.before, run.after, name) }
	mean := func(name string) float64 {
		return 1000 * ratio(d(name+"_sum"), d(name+"_count"))
	}
	baseRate, rate := base.rate(), run.rate()
	if o.workload == "gw-attr-churn" {
		// The feed's rate is fixed; the overhead shows in its latency.
		baseRate, rate = 1/percentile(base.attrMs, 50), 1/percentile(run.attrMs, 50)
	}
	rep.set("httpgw.submit_ms_p50", "ms", percentile(run.submitMs, 50))
	rep.set("httpgw.poll_ms_p50", "ms", percentile(run.pollMs, 50))
	for _, k := range []string{"reserve", "commit", "release", "attrs"} {
		rep.set("ops."+k+"_server_ms_p50", "ms", percentile(run.serverMs[k], 50))
	}
	rep.set("core.site_query_ms_mean", "ms", mean("rbay_site_query_latency_seconds"))
	rep.set("core.probe_ms_mean", "ms", mean("rbay_probe_latency_seconds"))
	rep.set("core.anycast_ms_mean", "ms", mean("rbay_anycast_latency_seconds"))
	// The phase stopped every node, so nothing records into tr any more.
	var handled time.Duration
	for _, a := range tr.layers {
		handled += a.busy
	}
	rep.set("tcpnet.send_us_p50", "us", percentile(tr.sends.durs, 50))
	rep.set("tcpnet.msgs_per_batch", "count", ratio(float64(run.batchedMsgs), float64(run.batchFrames)))
	rep.set("tcpnet.msgs_per_op", "count", ratio(float64(tr.sends.n), nops))
	rep.set("store.append_us_p50", "us", percentile(tr.appends.durs, 50))
	rep.set("store.fsyncs_per_op", "count", ratio(d("rbay_wal_fsync_total"), nops))
	rep.set("store.frames_per_op", "count", ratio(float64(tr.appends.n), nops))
	rep.set("store.bytes_per_op", "B", ratio(d("rbay_wal_bytes_total"), nops))
	rep.set("store.setbatch_frames_per_update", "count", ratio(float64(tr.appendKind["setbatch"]), float64(run.updates)))
	rep.set("core.handle_us_per_op", "us", ratio(us(handled), nops))
	rep.set("proc.cpu_ms_per_cycle", "ms", ratio(ms(cpu), float64(run.cycles)))
	rep.set("proc.cpu_ms_per_update", "ms", ratio(ms(cpu), float64(run.updates)))
	rep.set("ingest.updates_per_batch", "count", ratio(d("rbay_ingest_enqueued_total"), d("rbay_ingest_apply_seconds_count")))
	rep.set("ingest.coalesced_per_update", "count", ratio(d("rbay_ingest_coalesced_total"), d("rbay_ingest_enqueued_total")))
	rep.set("ingest.apply_ms_mean", "ms", mean("rbay_ingest_apply_seconds"))
	rep.set("scribe.tree_changes_per_s", "1/s", float64(tr.types["scribe.joinMsg"]+tr.types["scribe.leaveMsg"])/run.wall.Seconds())
	rep.set("gen.late_ms_p99", "ms", percentile(run.lateMs, 99))
	rep.set("gw.reserve_op_p50_ms", "ms", percentile(base.reserveMs, 50))
	rep.set("gw.commit_op_p50_ms", "ms", percentile(base.commitMs, 50))
	rep.set("gw.attr_op_p50_ms", "ms", percentile(base.attrMs, 50))
	rep.set("gw.attr_visible_p50_ms", "ms", percentile(base.visibleMs, 50))
	opMs := base.reserveMs
	if o.workload == "gw-attr-churn" {
		opMs = base.attrMs
	}
	rep.set("op.per_s", "1/s", base.rate())
	rep.set("op.p50_ms", "ms", percentile(opMs, 50))
	rep.set("op.p90_ms", "ms", percentile(opMs, 90))
	rep.set("op.p99_ms", "ms", percentile(opMs, 99))
	rep.set("trace.overhead_pct", "%", 100*ratio(baseRate-rate, baseRate))
	if err := tr.writeSpans(filepath.Join(o.work, "spans-"+o.workload+".jsonl")); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s traced: untraced %.3g/s, traced %.3g/s; store appends by kind over %d ops: %v\n",
		o.workload, baseRate, rate, run.doneSeen, tr.appendKind)
	return rep, nil
}
