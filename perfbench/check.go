package main

import (
	"fmt"
	"sort"
	"time"

	"rbay/internal/naming"
)

// The checkers below judge the program's outputs against ground truth the
// benchmark keeps itself: the attribute table it populated or posted, the
// paper's Table II RTTs, and the windows in which it held reservations.
// None of them compares against a saved copy of earlier output.

// tableIIRTTMicros is the paper's Table II average RTT matrix in
// microseconds, site order as in ec2Sites (upper triangle; the diagonal is
// the intra-site RTT).
var tableIIRTTMicros = [8][8]int64{
	{559, 60018, 83407, 87407, 275549, 191601, 239897, 123966},
	{0, 576, 20441, 166223, 200296, 133825, 190985, 205493},
	{0, 0, 489, 163944, 174701, 132695, 186027, 195109},
	{0, 0, 0, 513, 194371, 274962, 322284, 325274},
	{0, 0, 0, 0, 540, 92850, 184894, 396856},
	{0, 0, 0, 0, 0, 435, 127156, 374363},
	{0, 0, 0, 0, 0, 0, 565, 323613},
	{0, 0, 0, 0, 0, 0, 0, 436},
}

var ec2Sites = []string{"virginia", "oregon", "california", "ireland", "singapore", "tokyo", "sydney", "saopaulo"}

// tableIIRTT returns the Table II RTT between two evaluation sites.
func tableIIRTT(a, b string) (time.Duration, error) {
	i, j := -1, -1
	for k, s := range ec2Sites {
		if s == a {
			i = k
		}
		if s == b {
			j = k
		}
	}
	if i < 0 || j < 0 {
		return 0, fmt.Errorf("no Table II entry for %s-%s", a, b)
	}
	if i > j {
		i, j = j, i
	}
	return time.Duration(tableIIRTTMicros[i][j]) * time.Microsecond, nil
}

// attrs is one node's attribute set as the benchmark populated it.
type attrs map[string]any

// toFloat widens the numeric attribute types the benchmark posts.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// satisfies evaluates one predicate against the benchmark's own record of
// a node's attributes. A missing attribute never matches.
func satisfies(a attrs, p naming.Pred) bool {
	v, ok := a[p.Attr]
	if !ok {
		return false
	}
	if x, ok := toFloat(v); ok {
		y, ok := toFloat(p.Value)
		if !ok {
			return false
		}
		switch p.Op {
		case naming.OpEq:
			return x == y
		case naming.OpNe:
			return x != y
		case naming.OpLt:
			return x < y
		case naming.OpLe:
			return x <= y
		case naming.OpGt:
			return x > y
		case naming.OpGe:
			return x >= y
		}
		return false
	}
	switch p.Op {
	case naming.OpEq:
		return v == p.Value
	case naming.OpNe:
		return v != p.Value
	}
	if x, ok := v.(string); ok {
		y, ok := p.Value.(string)
		if !ok {
			return false
		}
		switch p.Op {
		case naming.OpLt:
			return x < y
		case naming.OpLe:
			return x <= y
		case naming.OpGt:
			return x > y
		case naming.OpGe:
			return x >= y
		}
	}
	return false
}

func satisfiesAll(a attrs, preds []naming.Pred) bool {
	for _, p := range preds {
		if !satisfies(a, p) {
			return false
		}
	}
	return true
}

// candidate is one returned resource: the node's address parts.
type candidate struct {
	Site, Host string
}

func (c candidate) key() string { return c.Site + "/" + c.Host }

// checkCandidates reports every candidate that does not lie in one of the
// queried sites or fails a predicate against the benchmark's table (keyed
// "site/host"). A nil site list means every site.
func checkCandidates(id string, cands []candidate, sites []string, preds []naming.Pred, table map[string]attrs) []string {
	var bad []string
	for _, c := range cands {
		if len(sites) > 0 && !contains(sites, c.Site) {
			bad = append(bad, fmt.Sprintf("%s: candidate %s outside FROM %v", id, c.key(), sites))
			continue
		}
		a, ok := table[c.key()]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: candidate %s is no node the benchmark populated", id, c.key()))
			continue
		}
		if !satisfiesAll(a, preds) {
			bad = append(bad, fmt.Sprintf("%s: candidate %s fails %v", id, c.key(), preds))
		}
	}
	return bad
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// hold is one interval in which an owner surely held a node: it starts no
// earlier than the grant and ends no later than the release request.
type hold struct {
	Owner    string
	Node     string
	From, To time.Time
}

// checkHolds reports nodes held by two owners at once. A later hold that
// overlaps an earlier one is allowed only once the earlier lease passed
// ttl (an uncommitted reservation expires); ttl 0 allows no overlap.
func checkHolds(hs []hold, ttl time.Duration) []string {
	byNode := map[string][]hold{}
	for _, h := range hs {
		byNode[h.Node] = append(byNode[h.Node], h)
	}
	var bad []string
	for node, list := range byNode {
		sort.Slice(list, func(i, j int) bool { return list[i].From.Before(list[j].From) })
		for i := range list {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if !b.From.Before(a.To) {
					break
				}
				if a.Owner == b.Owner {
					continue
				}
				if ttl > 0 && !b.From.Before(a.From.Add(ttl)) {
					continue
				}
				bad = append(bad, fmt.Sprintf("node %s held by %s [%v, %v] and %s [%v, %v]",
					node, a.Owner, a.From.Format(time.StampMicro), a.To.Format(time.StampMicro),
					b.Owner, b.From.Format(time.StampMicro), b.To.Format(time.StampMicro)))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// simQuery is one fig9-sim composite query as issued and answered.
type simQuery struct {
	ID        string
	Origin    string
	Sites     []string // FROM sites; nil means all
	Preds     []naming.Pred
	K         int
	Issued    time.Time // virtual
	Released  time.Time // virtual; the callback releases at once
	Latency   time.Duration
	Shortfall int
	Cands     []candidate
	// Holders is, per candidate, the query its owner node reported holding
	// its reservation lock when the result arrived ("" if none).
	Holders []string
}

// simTruth is what the benchmark knows about the simulated federation.
type simTruth struct {
	Table      map[string]attrs    // "site/host" → populated attributes
	BySite     map[string][]string // site → "site/host" keys
	Sites      []string            // every site
	ReserveTTL time.Duration
	Jitter     float64
}

// checkSimQueries applies the fig9-sim checks: candidates in FROM sites
// and matching every predicate; shortfall only when fewer than k matches
// were free; no double allocation (every returned node still locked by the
// query that got it, unless its lease passed ReserveTTL); latency at least the Table II RTT to
// the farthest remote site, less the configured jitter.
func checkSimQueries(qs []simQuery, t simTruth) []string {
	var bad []string
	for _, q := range qs {
		bad = append(bad, checkCandidates(q.ID, q.Cands, q.Sites, q.Preds, t.Table)...)
		for i, c := range q.Cands {
			holder := ""
			if i < len(q.Holders) {
				holder = q.Holders[i]
			}
			// A lease may lapse after ReserveTTL; otherwise the owner's lock
			// must name this query, or the node was handed out twice.
			if holder != q.ID && !(holder == "" && q.Latency >= t.ReserveTTL) {
				bad = append(bad, fmt.Sprintf("%s: candidate %s is locked by %q, not by this query", q.ID, c.key(), holder))
			}
		}
		sites := q.Sites
		if len(sites) == 0 {
			sites = t.Sites
		}
		var far time.Duration
		for _, s := range sites {
			if s == q.Origin {
				continue
			}
			rtt, err := tableIIRTT(q.Origin, s)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", q.ID, err))
				continue
			}
			if rtt > far {
				far = rtt
			}
		}
		if min := time.Duration(float64(far) * (1 - t.Jitter)); q.Latency < min {
			bad = append(bad, fmt.Sprintf("%s: latency %v below the Table II bound %v (origin %s, sites %v)",
				q.ID, q.Latency, min, q.Origin, sites))
		}
	}
	bad = append(bad, checkShortfalls(qs, t)...)
	return bad
}

// releaseGrace covers a release message still in flight to the held node
// after the origin sent it: well above the largest Table II one-way delay.
const releaseGrace = time.Second

// checkShortfalls flags a query that came back short although at least k
// matching nodes in its FROM sites were free. A node counts as possibly
// busy when another query whose issue→release window (plus releaseGrace)
// overlapped this one's could have reserved it — it matched that query's
// predicates and sites — since surplus reservations trimmed at merge are
// not visible in any result.
func checkShortfalls(qs []simQuery, t simTruth) []string {
	var bad []string
	for i, q := range qs {
		if q.Shortfall == 0 {
			continue
		}
		sites := q.Sites
		if len(sites) == 0 {
			sites = t.Sites
		}
		var rivals []simQuery
		for j, o := range qs {
			if j != i && o.Issued.Before(q.Released.Add(releaseGrace)) && q.Issued.Before(o.Released.Add(releaseGrace)) {
				rivals = append(rivals, o)
			}
		}
		free := 0
		for _, s := range sites {
			for _, key := range t.BySite[s] {
				if !satisfiesAll(t.Table[key], q.Preds) {
					continue
				}
				busy := false
				for _, o := range rivals {
					if (len(o.Sites) == 0 || contains(o.Sites, s)) && satisfiesAll(t.Table[key], o.Preds) {
						busy = true
						break
					}
				}
				if !busy {
					free++
				}
			}
		}
		if free >= q.K {
			bad = append(bad, fmt.Sprintf("%s: shortfall %d of k=%d although %d matching nodes were free",
				q.ID, q.Shortfall, q.K, free))
		}
	}
	return bad
}

// checkTreeCounts compares each site's reported tree size with the count
// the benchmark computed from what it posted.
func checkTreeCounts(want, got map[string]int64) []string {
	var bad []string
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok || g != want[k] {
			bad = append(bad, fmt.Sprintf("tree %s: reported %d, posted attributes give %d", k, g, want[k]))
		}
	}
	return bad
}

// checkLastWrite compares a daemon's attributes with the last value the
// benchmark posted for each name.
func checkLastWrite(node string, posted, got attrs) []string {
	var bad []string
	names := make([]string, 0, len(posted))
	for k := range posted {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g, ok := got[k]
		if !ok || !sameValue(g, posted[k]) {
			bad = append(bad, fmt.Sprintf("%s: attribute %s reads %v, last posted %v", node, k, g, posted[k]))
		}
	}
	return bad
}

// sameValue compares a value read back over JSON with the posted one.
func sameValue(a, b any) bool {
	if x, ok := toFloat(a); ok {
		y, ok := toFloat(b)
		return ok && x == y
	}
	return a == b
}
