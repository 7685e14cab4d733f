package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rbay/internal/core"
	"rbay/internal/httpgw"
	"rbay/internal/ops"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
	"rbay/internal/workload"
)

// The gw-* federation: gwPerSite daemons in each of two sites, every one
// with an HTTP gateway and a data dir under the default -fsync always.
var gwSites = []string{"east", "west"}

const gwPerSite = 3

// gwNode is one daemon of the federation.
type gwNode struct {
	site, host string
	tcp, http  string // loopback listen addresses
	base       string // gateway URL
	attrs      attrs  // attributes posted at start
	cmd        *exec.Cmd
}

func (n *gwNode) addr() string { return n.site + "/" + n.host }

// c3Types are the instance types daemons advertise: one family, so a
// single family tree holds every posted resource.
var c3Types = []string{"c3.large", "c3.xlarge", "c3.2xlarge", "c3.4xlarge", "c3.8xlarge"}

// planNodes draws each daemon's attributes from the seed.
func planNodes(seed int64) []*gwNode {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	var nodes []*gwNode
	for _, site := range gwSites {
		// Distinct types, ascending in vcpu from n1 to n3.
		pick := rng.Perm(len(c3Types))[:gwPerSite]
		sort.Ints(pick)
		for i := 1; i <= gwPerSite; i++ {
			spec, _ := workload.SpecByName(c3Types[pick[i-1]])
			a := attrs{
				"instance_type":   spec.Name,
				"instance_family": spec.Family,
				"vcpu":            spec.VCPU,
				"mem_gb":          spec.MemGB,
				"GPU":             rng.Intn(2) == 0,
				"CPU_utilization": float64(rng.Intn(100)) / 100,
			}
			for j := 0; j < gwSynthAttrs; j++ {
				a[synthName(j)] = float64(rng.Intn(1000)) / 1000
			}
			nodes = append(nodes, &gwNode{site: site, host: fmt.Sprintf("n%d", i), attrs: a})
		}
	}
	return nodes
}

func synthName(j int) string { return workload.SyntheticAttrName(j) }

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var out []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// assignAddrs gives every node its TCP and HTTP listen addresses.
func assignAddrs(nodes []*gwNode) error {
	ports, err := freePorts(2 * len(nodes))
	if err != nil {
		return err
	}
	for i, n := range nodes {
		n.tcp, n.http = ports[2*i], ports[2*i+1]
		n.base = "http://" + n.http
	}
	return nil
}

// seedOf names the peer a node joins through: the federation's first node
// for each site's first node, the site's first node otherwise (rbayd joins
// the site ring only through a same-site seed).
func seedOf(nodes []*gwNode, i int) string {
	if i == 0 {
		return ""
	}
	n := nodes[i]
	for _, m := range nodes[:i] {
		if m.site == n.site {
			return m.addr()
		}
	}
	return nodes[0].addr()
}

func attrFlagValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	}
	return fmt.Sprint(v)
}

// spawnDaemons starts one rbayd process per node and returns a stop
// function that shuts them down gracefully, kills what does not exit, and
// waits for every process.
func spawnDaemons(o options, dir string, nodes []*gwNode) (func(), error) {
	if err := assignAddrs(nodes); err != nil {
		return nil, err
	}
	var peers strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&peers, "%s %s\n", n.addr(), n.tcp)
	}
	peersFile := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(peersFile, []byte(peers.String()), 0o644); err != nil {
		return nil, err
	}
	stop := func() {
		for _, n := range nodes {
			if n.cmd != nil && n.cmd.Process != nil {
				_ = n.cmd.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, n := range nodes {
			if n.cmd == nil || n.cmd.Process == nil {
				continue
			}
			done := make(chan struct{})
			go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(n.cmd)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				_ = n.cmd.Process.Kill()
				<-done
			}
		}
	}
	for i, n := range nodes {
		args := []string{"-addr", n.addr(), "-listen", n.tcp, "-peers", peersFile,
			"-http", n.http, "-data-dir", filepath.Join(dir, n.site+"-"+n.host)}
		if s := seedOf(nodes, i); s == "" {
			args = append(args, "-bootstrap")
		} else {
			args = append(args, "-seed", s)
		}
		keys := make([]string, 0, len(n.attrs))
		for k := range n.attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			args = append(args, "-attr", k+"="+attrFlagValue(n.attrs[k]))
		}
		logf, err := os.Create(filepath.Join(dir, n.site+"-"+n.host+".log"))
		if err != nil {
			stop()
			return nil, err
		}
		cmd := exec.Command(o.rbayd, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The daemons die with the benchmark if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			stop()
			return nil, err
		}
		n.cmd = cmd
		// A joining node needs its seed serving; the gateway comes up last.
		if err := waitHTTP(n.base, 20*time.Second); err != nil {
			stop()
			return nil, fmt.Errorf("%s: %w", n.addr(), err)
		}
	}
	return stop, nil
}

// waitHTTP polls a gateway's /healthz until it answers.
func waitHTTP(base string, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("gateway never came up")
}

// inprocNode is one node wired in this process the way cmd/rbayd wires a
// daemon, with the transport and store optionally decorated.
type inprocNode struct {
	net  *tcpnet.Network
	node *core.Node
	srv  *http.Server
}

// startInProcess builds the federation inside this process: per node
// store.Open → tcpnet.ListenConfig → core.New → httpgw.NewGateway, then
// the same restore-free bootstrap/join/refederate sequence rbayd runs.
// With a tracer, the transport and the store are decorated.
func startInProcess(dir string, nodes []*gwNode, tr *tracer) ([]*inprocNode, func(), error) {
	if err := assignAddrs(nodes); err != nil {
		return nil, nil, err
	}
	core.RegisterWire()
	table := map[transport.Addr]string{}
	for _, n := range nodes {
		table[transport.Addr{Site: n.site, Host: n.host}] = n.tcp
	}
	reg := workload.BuildRegistry()
	var live []*inprocNode
	stop := func() {
		for _, p := range live {
			_ = p.srv.Close()
		}
		for _, p := range live {
			p.node.DoWait(func() { _ = p.node.Shutdown() })
			_ = p.net.Close()
		}
	}
	for i, n := range nodes {
		addr := transport.Addr{Site: n.site, Host: n.host}
		d, err := store.OpenOSDir(filepath.Join(dir, n.site+"-"+n.host))
		if err != nil {
			stop()
			return nil, nil, err
		}
		lg, _, err := store.Open(d, store.Options{Policy: store.SyncAlways})
		if err != nil {
			stop()
			return nil, nil, err
		}
		var st durable = lg
		tn, err := tcpnet.ListenConfig(n.tcp, tcpnet.StaticResolver(table), tcpnet.Config{
			HeartbeatInterval: 2 * time.Second, HeartbeatMisses: 3, QueueLen: 1024,
		})
		if err != nil {
			_ = lg.Close()
			stop()
			return nil, nil, err
		}
		var netw transport.Network = tn
		if tr != nil {
			netw = network{inner: tn, t: tr}
			st = tracedStore{inner: lg, t: tr}
		}
		node, err := core.New(netw, addr, reg, core.Config{Store: st})
		if err != nil {
			_ = tn.Close()
			stop()
			return nil, nil, err
		}
		tn.OnPeerDown(func(a transport.Addr) { node.Do(func() { node.Pastry().NoteAddrFailure(a) }) })
		for k, v := range n.attrs {
			k, v := k, v
			node.DoWait(func() { node.SetAttribute(k, v) })
		}
		if s := seedOf(nodes, i); s == "" {
			node.DoWait(func() { node.Pastry().BootstrapAlone() })
		} else {
			seed := parseAddr(s)
			joined := make(chan struct{})
			var joinErr error
			node.DoWait(func() { joinErr = node.Pastry().JoinGlobal(seed, func() { close(joined) }) })
			if joinErr != nil {
				stop()
				return nil, nil, joinErr
			}
			select {
			case <-joined:
			case <-time.After(15 * time.Second):
				stop()
				return nil, nil, fmt.Errorf("%s: join through %v timed out", n.addr(), seed)
			}
			if seed.Site == addr.Site {
				node.DoWait(func() { _ = node.Pastry().JoinSite(seed, nil) })
			}
		}
		node.DoWait(func() { node.Refederate() })
		gw := httpgw.NewGateway(node, httpgw.Options{
			Timeout:   30 * time.Second,
			OpsStore:  st,
			OpsConfig: ops.Config{Workers: 8, QueueMax: 256},
		})
		ln, err := net.Listen("tcp", n.http)
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &http.Server{Handler: gw, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(ln) }()
		live = append(live, &inprocNode{net: tn, node: node, srv: srv})
	}
	return live, stop, nil
}

func parseAddr(s string) transport.Addr {
	site, host, _ := strings.Cut(s, "/")
	return transport.Addr{Site: site, Host: host}
}
