// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock budget, checks every output against
// ground truth the benchmark computes itself, and prints one JSON result
// line: end-to-end metrics by default, per-layer metrics with -trace 1.
//
// Workloads:
//
//	fig9-sim           the paper's §IV-C composite-query mix on the simulated
//	                   eight-site federation (virtual-time latency)
//	gw-reserve-commit  two closed-loop customers driving reserve→commit→release
//	                   through real rbayd daemons' HTTP gateways
//	gw-attr-churn      an open-loop bulk-attribute feed to every daemon beside
//	                   one closed-loop customer
//
// Run it through run.sh, which builds this binary and rbayd first:
//
//	bash perfbench/run.sh --workload fig9-sim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// procStart approximates the process start; the wall-clock set-up time
// printed on stderr is timed from here. setup_s itself is CPU time, which
// the kernel counts from the process's start.
var procStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rbayd    string // path of the rbayd binary (gw-* workloads)
	work     string // scratch directory for data dirs, peers files, spans
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int
	violations        []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) violate(format string, args ...any) {
	if len(r.violations) < 1000 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it: the
// gw-* workloads run no simulator, fig9-sim touches no store or gateway.
var perLayer = []struct{ name, unit string }{
	// fig9-sim: simulator, codec, overlay layers and the query planner.
	{"simnet.events_per_query", "count"},
	{"simnet.self_us_per_query", "us"},
	{"wire.roundtrip_us_per_query", "us"},
	{"wire.bytes_per_msg", "B"},
	{"pastry.msgs_per_query", "count"},
	{"pastry.handle_us_per_query", "us"},
	{"scribe.msgs_per_query", "count"},
	{"scribe.handle_us_per_query", "us"},
	{"core.msgs_per_query", "count"},
	{"core.handle_us_per_query", "us"},
	{"query.parse_us", "us"},
	{"go.allocs_per_query", "count"},
	{"go.alloc_bytes_per_query", "B"},
	{"query.probe_vms_p50", "ms"},
	{"query.anycast_vms_p50", "ms"},
	{"query.backoff_vms_p50", "ms"},
	{"query.attempts_per_query", "count"},
	{"scribe.anycast_hops_per_query", "count"},
	// gw-*: gateway, ops engine, core legs, transport, store, ingest.
	{"httpgw.submit_ms_p50", "ms"},
	{"httpgw.poll_ms_p50", "ms"},
	{"ops.reserve_server_ms_p50", "ms"},
	{"ops.commit_server_ms_p50", "ms"},
	{"ops.release_server_ms_p50", "ms"},
	{"ops.attrs_server_ms_p50", "ms"},
	{"core.site_query_ms_mean", "ms"},
	{"core.probe_ms_mean", "ms"},
	{"core.anycast_ms_mean", "ms"},
	{"core.handle_us_per_op", "us"},
	{"tcpnet.send_us_p50", "us"},
	{"tcpnet.msgs_per_batch", "count"},
	{"tcpnet.msgs_per_op", "count"},
	{"store.append_us_p50", "us"},
	{"store.fsyncs_per_op", "count"},
	{"store.frames_per_op", "count"},
	{"store.bytes_per_op", "B"},
	{"store.setbatch_frames_per_update", "count"},
	{"ingest.updates_per_batch", "count"},
	{"ingest.coalesced_per_update", "count"},
	{"ingest.apply_ms_mean", "ms"},
	{"scribe.tree_changes_per_s", "1/s"},
	{"proc.cpu_ms_per_cycle", "ms"},
	{"proc.cpu_ms_per_update", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gw.reserve_op_p50_ms", "ms"},
	{"gw.commit_op_p50_ms", "ms"},
	{"gw.attr_op_p50_ms", "ms"},
	{"gw.attr_visible_p50_ms", "ms"},
	// Every workload: the client-visible rate and latency quantiles of the
	// untraced half (fig9-sim: virtual query latency).
	{"op.per_s", "1/s"},
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	{"op.p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "fig9-sim, gw-reserve-commit or gw-attr-churn")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced in-process run reporting per-layer metrics")
	fs.StringVar(&o.rbayd, "rbayd", "", "rbayd binary (gw-* workloads)")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.work = work
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	var rep *report
	switch o.workload {
	case "fig9-sim":
		rep, err = runFig9(o)
	case "gw-reserve-commit", "gw-attr-churn":
		rep, err = runGateway(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.trace {
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, m.unit, 0)
			}
		}
	}
	for _, v := range rep.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	res := result{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}
