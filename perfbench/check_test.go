package main

import (
	"strings"
	"testing"
	"time"

	"rbay/internal/naming"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func simFixture() ([]simQuery, simTruth) {
	truth := simTruth{
		Table: map[string]attrs{
			"virginia/n0": {"instance_type": "c3.large", "vcpu": 2.0},
			"virginia/n1": {"instance_type": "c3.large", "vcpu": 2.0},
			"virginia/n2": {"instance_type": "m3.large", "vcpu": 2.0},
			"tokyo/n0":    {"instance_type": "c3.large", "vcpu": 2.0},
		},
		BySite: map[string][]string{
			"virginia": {"virginia/n0", "virginia/n1", "virginia/n2"},
			"tokyo":    {"tokyo/n0"},
		},
		Sites:      []string{"virginia", "tokyo"},
		ReserveTTL: 5 * time.Second,
		Jitter:     0.05,
	}
	preds := []naming.Pred{{Attr: "instance_type", Op: naming.OpEq, Value: "c3.large"}}
	q := simQuery{
		ID: "q1", Origin: "virginia", Sites: []string{"virginia", "tokyo"}, Preds: preds, K: 3,
		Issued: t0, Released: t0.Add(300 * time.Millisecond), Latency: 300 * time.Millisecond,
		Cands:   []candidate{{"virginia", "n0"}, {"virginia", "n1"}, {"tokyo", "n0"}},
		Holders: []string{"q1", "q1", "q1"},
	}
	return []simQuery{q}, truth
}

func wantViolation(t *testing.T, got []string, substr string) {
	t.Helper()
	for _, v := range got {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("no violation mentioning %q in %q", substr, got)
}

func TestSimCheckAcceptsValidRun(t *testing.T) {
	qs, truth := simFixture()
	if bad := checkSimQueries(qs, truth); len(bad) != 0 {
		t.Fatalf("valid run rejected: %v", bad)
	}
}

func TestSimCheckRejectsDoubleAllocation(t *testing.T) {
	qs, truth := simFixture()
	// A second query got virginia/n0 while q1 still held it: the owner's
	// lock names only one of them.
	q2 := qs[0]
	q2.ID, q2.Issued = "q2", t0.Add(100*time.Millisecond)
	q2.Cands = []candidate{{"virginia", "n0"}}
	q2.Holders = []string{"q2"}
	qs[0].Holders[0] = "q2"
	wantViolation(t, checkSimQueries(append(qs, q2), truth), "locked by \"q2\"")
}

func TestSimCheckAllowsLapsedLease(t *testing.T) {
	qs, truth := simFixture()
	qs[0].Latency = 6 * time.Second
	qs[0].Holders[0] = "" // the lease expired before the answer
	if bad := checkSimQueries(qs, truth); len(bad) != 0 {
		t.Fatalf("lapsed lease rejected: %v", bad)
	}
}

func TestSimCheckRejectsOffPredicateCandidate(t *testing.T) {
	qs, truth := simFixture()
	qs[0].Cands[1] = candidate{"virginia", "n2"} // an m3.large
	wantViolation(t, checkSimQueries(qs, truth), "virginia/n2 fails")
}

func TestSimCheckRejectsCandidateOutsideFrom(t *testing.T) {
	qs, truth := simFixture()
	qs[0].Sites = []string{"virginia"}
	wantViolation(t, checkSimQueries(qs, truth), "outside FROM")
}

func TestSimCheckRejectsLatencyBelowRTT(t *testing.T) {
	qs, truth := simFixture()
	// Virginia–Tokyo is 191.6 ms in Table II; less 5% jitter is 182 ms.
	qs[0].Latency = 150 * time.Millisecond
	wantViolation(t, checkSimQueries(qs, truth), "below the Table II bound")
	qs[0].Latency = 185 * time.Millisecond
	if bad := checkSimQueries(qs, truth); len(bad) != 0 {
		t.Fatalf("latency within jitter rejected: %v", bad)
	}
}

func TestSimCheckRejectsNeedlessShortfall(t *testing.T) {
	qs, truth := simFixture()
	qs[0].Cands, qs[0].Holders = qs[0].Cands[:1], qs[0].Holders[:1]
	qs[0].Shortfall = 2 // three matching nodes were free
	wantViolation(t, checkSimQueries(qs, truth), "were free")
	// With a rival holding matches in the same window, it is allowed.
	rival := simQuery{ID: "r", Origin: "virginia", Preds: qs[0].Preds, K: 3,
		Issued: t0, Released: t0.Add(time.Second), Latency: time.Second,
		Cands: []candidate{{"virginia", "n1"}}, Holders: []string{"r"}}
	for _, v := range checkSimQueries(append(qs, rival), truth) {
		if strings.Contains(v, "were free") {
			t.Fatalf("shortfall beside a rival rejected: %v", v)
		}
	}
}

func TestHoldCheckRejectsOverlap(t *testing.T) {
	hs := []hold{
		{Owner: "a", Node: "east/n2", From: t0, To: t0.Add(10 * time.Millisecond)},
		{Owner: "b", Node: "east/n2", From: t0.Add(5 * time.Millisecond), To: t0.Add(20 * time.Millisecond)},
	}
	wantViolation(t, checkHolds(hs, 0), "east/n2 held by a")
	hs[1].From = t0.Add(10 * time.Millisecond) // back to back is fine
	if bad := checkHolds(hs, 0); len(bad) != 0 {
		t.Fatalf("sequential holds rejected: %v", bad)
	}
}

func TestGatewayCandidateCheck(t *testing.T) {
	table := map[string]attrs{
		"east/n1": {"instance_family": "c3", "vcpu": 2.0},
		"east/n2": {"instance_family": "c3", "vcpu": 8.0},
	}
	preds := []naming.Pred{
		{Attr: "instance_family", Op: naming.OpEq, Value: "c3"},
		{Attr: "vcpu", Op: naming.OpGe, Value: 8.0},
	}
	if bad := checkCandidates("op", []candidate{{"east", "n2"}}, []string{"east"}, preds, table); len(bad) != 0 {
		t.Fatalf("valid candidate rejected: %v", bad)
	}
	wantViolation(t, checkCandidates("op", []candidate{{"east", "n1"}}, []string{"east"}, preds, table), "east/n1 fails")
	wantViolation(t, checkCandidates("op", []candidate{{"west", "n2"}}, []string{"east"}, preds, table), "outside FROM")
}

func TestTreeCountCheckRejectsStaleCount(t *testing.T) {
	want := map[string]int64{"east": 2, "west": 0}
	if bad := checkTreeCounts(want, map[string]int64{"east": 2, "west": 0}); len(bad) != 0 {
		t.Fatalf("fresh counts rejected: %v", bad)
	}
	wantViolation(t, checkTreeCounts(want, map[string]int64{"east": 1, "west": 0}), "tree east")
	wantViolation(t, checkTreeCounts(want, map[string]int64{"east": 2}), "tree west")
}

func TestLastWriteCheck(t *testing.T) {
	posted := attrs{"attr_00001": 0.25, "GPU": true}
	if bad := checkLastWrite("east/n1", posted, attrs{"attr_00001": 0.25, "GPU": true, "vcpu": 4.0}); len(bad) != 0 {
		t.Fatalf("matching attrs rejected: %v", bad)
	}
	wantViolation(t, checkLastWrite("east/n1", posted, attrs{"attr_00001": 0.5, "GPU": true}), "attr_00001")
}

// TestSimRoundPassesAndPlantedFaultFails runs one real round of fig9-sim,
// which must pass every check, then plants a wrong candidate in its output,
// which must fail.
func TestSimRoundPassesAndPlantedFaultFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	feds, err := buildSims(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := runSimRounds(feds, 5, time.Nanosecond, nil)
	if run.failed != 0 || run.answered != roundSize() {
		t.Fatalf("round: %d answered, %d failed", run.answered, run.failed)
	}
	rep := newReport()
	checkSims(feds, rep, "")
	if len(rep.violations) != 0 {
		t.Fatalf("real round rejected: %v", rep.violations)
	}
	f := feds[0]
	for i, q := range f.queries {
		if len(q.Cands) == 0 {
			continue
		}
		// Replace a candidate with a node of another instance type.
		for key, a := range f.truth.Table {
			if a["instance_type"] != q.Preds[0].Value {
				site, host, _ := strings.Cut(key, "/")
				f.queries[i].Cands[0] = candidate{Site: site, Host: host}
				break
			}
		}
		break
	}
	rep = newReport()
	checkSims(feds, rep, "")
	if len(rep.violations) == 0 {
		t.Fatal("planted off-predicate candidate passed the checks")
	}
}
