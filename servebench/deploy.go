package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one crackserve or crackrouter process. Every started
// daemon is registered until it has been reaped, so killAll can stop
// the lot on any exit path; Pdeathsig takes them down with the driver
// if it dies without running its cleanup.
type daemon struct {
	name   string
	bin    string
	args   []string
	addr   string
	log    string
	cmd    *exec.Cmd
	exited chan struct{}
}

var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: make(map[*daemon]bool)}

func (d *daemon) start() error {
	f, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	d.cmd, d.exited = cmd, make(chan struct{})
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		f.Close()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.exited)
	}()
	return nil
}

func (d *daemon) running() bool {
	if d.exited == nil {
		return false
	}
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop sends sig and waits for the process to exit, killing it when
// it outlives the timeout.
func (d *daemon) stop(sig syscall.Signal, timeout time.Duration) error {
	if !d.running() {
		return nil
	}
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s did not exit within %s of %s", d.name, timeout, sig)
	}
	if sig != syscall.SIGKILL && !d.cmd.ProcessState.Success() {
		return fmt.Errorf("%s exited with %s; log tail: %s", d.name, d.cmd.ProcessState, d.logTail())
	}
	return nil
}

// killAll kills and reaps every daemon still running.
func killAll() {
	live.Lock()
	var ds []*daemon
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop(syscall.SIGKILL, 10*time.Second)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log)
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = s[len(s)-400:]
	}
	return s
}

// procStatus reads one "Key:   N kB" field of /proc/<pid>/status.
func (d *daemon) procStatus(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb, err
		}
	}
	return 0, fmt.Errorf("%s: no %s in /proc status", d.name, key)
}

// cpuSeconds is the process's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", d.name)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad /proc stat", d.name)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// deployment is one workload's daemons: a crackserve node, or two
// striped nodes behind a crackrouter. Only deployment flags are passed;
// everything else runs at its default, as users run it.
type deployment struct {
	nodes  []*daemon
	router *daemon
}

// newDeployment lays out the daemons on fresh loopback ports, with
// snapshot and log files in dir. withRouter puts a one-node router in
// front of a single-node workload (the traced run prices the router on
// every workload that way).
func newDeployment(w workloadDef, bin, dir string, seed int64, withRouter bool) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := 1
	if w.routed {
		n = 2
	}
	dep := &deployment{}
	var addrs []string
	for s := 0; s < n; s++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-tables", w.tableSpec(), "-seed", strconv.FormatInt(seed, 10),
			"-snapshot", filepath.Join(dir, fmt.Sprintf("node%d.snap", s))}
		if n > 1 {
			args = append(args, "-stripe", fmt.Sprintf("%d/%d", s, n))
		}
		dep.nodes = append(dep.nodes, &daemon{name: fmt.Sprintf("crackserve#%d", s), bin: filepath.Join(bin, "crackserve"),
			args: args, addr: addr, log: filepath.Join(dir, fmt.Sprintf("node%d.log", s))})
		addrs = append(addrs, addr)
	}
	if w.routed || withRouter {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		dep.router = &daemon{name: "crackrouter", bin: filepath.Join(bin, "crackrouter"),
			args: []string{"-addr", addr, "-nodes", strings.Join(addrs, ",")}, addr: addr,
			log: filepath.Join(dir, "router.log")}
	}
	return dep, nil
}

// front is the address the sessions talk to.
func (d *deployment) front() string {
	if d.router != nil {
		return d.router.addr
	}
	return d.nodes[0].addr
}

func (d *deployment) all() []*daemon {
	if d.router == nil {
		return d.nodes
	}
	return append(append([]*daemon(nil), d.nodes...), d.router)
}

// boot starts the nodes, waits until each answers /healthz with 200,
// then does the same for the router, and returns the time from the
// first exec to the last 200. The router starts once its backends are
// ready, so its own boot-retry loop never adds a polling step.
func (d *deployment) boot() (time.Duration, error) {
	t0 := time.Now()
	for _, nd := range d.nodes {
		if err := nd.start(); err != nil {
			return 0, err
		}
	}
	for _, nd := range d.nodes {
		if err := waitHealthy(nd, 120*time.Second); err != nil {
			return 0, err
		}
	}
	if d.router != nil {
		if err := d.router.start(); err != nil {
			return 0, err
		}
		if err := waitHealthy(d.router, 60*time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

var probe = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func waitHealthy(d *daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probe.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !d.running() {
			return fmt.Errorf("%s exited during boot; log tail: %s", d.name, d.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s", d.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops every daemon without a snapshot and removes the
// snapshot files, so the next boot starts cold.
func (d *deployment) kill() {
	for _, dm := range d.all() {
		dm.stop(syscall.SIGKILL, 10*time.Second)
	}
	for _, nd := range d.nodes {
		for i, a := range nd.args {
			if a == "-snapshot" {
				os.Remove(nd.args[i+1])
			}
		}
	}
}

// restart stops the deployment gracefully — each node writes its
// snapshot on the way down — and boots it again from the snapshots. It
// returns the time from the first stop signal to ready.
func (d *deployment) restart() (time.Duration, error) {
	t0 := time.Now()
	if d.router != nil {
		if err := d.router.stop(syscall.SIGTERM, 60*time.Second); err != nil {
			return 0, err
		}
	}
	// Stop the nodes together: each snapshots its own stripe.
	errs := make([]error, len(d.nodes))
	var wg sync.WaitGroup
	for i, nd := range d.nodes {
		wg.Add(1)
		go func(i int, nd *daemon) {
			defer wg.Done()
			errs[i] = nd.stop(syscall.SIGTERM, 120*time.Second)
		}(i, nd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if _, err := d.boot(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// peakRSSMB sums the daemons' peak resident set sizes (VmHWM).
func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, dm := range d.all() {
		kb, err := dm.procStatus("VmHWM")
		if err != nil {
			return 0, err
		}
		sum += kb / 1024
	}
	return sum, nil
}
