// Command servebench is the repository's benchmark: it starts the real
// crackserve (and, for the routed mix, crackrouter) daemons, drives one
// traffic mix over the v1 wire API with a closed loop of two sessions,
// checks every answer against a reference model built from the same
// seed, and prints the end-to-end metrics. With -trace 1 it instead
// replays the mix's op stream through the in-process layer ladder
// (engine, shard, server, HTTP, router) and a short daemon pass, and
// prints the per-layer metrics.
//
//	bash servebench/run.sh --workload explore --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads and for which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adaptiveindex/internal/api"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	w       workloadDef
	seed    int64
	seconds float64
	bin     string
	work    string
	spans   string
}

// runDeadline bounds a whole run: a daemon that hangs cannot hold the
// benchmark past it.
const runDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "traffic mix: explore, ingest or routed")
	seed := flag.Int64("seed", 1, "seed of the data and of every session's op stream")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: replay through the layer ladder and print per-layer metrics")
	bin := flag.String("bin", "", "directory holding the crackserve and crackrouter binaries")
	work := flag.String("work", "", "scratch directory for snapshots and daemon logs; spans go beside it")
	flag.Parse()
	w, err := findWorkload(*workload)
	if err != nil || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: need -workload, -bin, -work and a positive -seconds:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, bin: *bin,
		work:  filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		spans: filepath.Join(filepath.Dir(filepath.Clean(*work)), "spans")}

	// Every exit path kills and reaps the daemons: a signal, the run
	// deadline, or a normal return.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintln(os.Stderr, "servebench: stopping on", sig)
		case <-time.After(runDeadline):
			fmt.Fprintln(os.Stderr, "servebench: run deadline exceeded")
		}
		killAll()
		os.RemoveAll(cfg.work)
		os.Exit(3)
	}()

	// The driver allocates a decoded answer per op and keeps little: a
	// lazier collector leaves more CPU to the daemons it measures.
	debug.SetGCPercent(400)
	meta := runMeta()
	steal0 := cpuStat()
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg, meta)
	}
	killAll()
	os.RemoveAll(cfg.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	meta["loadavg_after"] = loadAvg()
	meta["steal_frac"] = stealFrac(steal0)
	mb, _ := json.Marshal(meta)
	fmt.Printf("servebench: meta %s\n", mb)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runMeta records what the numbers depend on besides the code.
func runMeta() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"loadavg_before": loadAvg(),
	}
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b))[:3], " ")
}

// cpuStat returns the machine's CPU time so far, in clock ticks: the
// total over all states, and the part the hypervisor stole.
func cpuStat() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var total, steal float64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{total, steal}
}

// stealFrac is the share of the machine's CPU time the hypervisor
// stole after start was read: a slow spell of a shared host shows here,
// not as a change of the program.
func stealFrac(start [2]float64) float64 {
	now := cpuStat()
	if now[0] <= start[0] {
		return 0
	}
	return (now[1] - start[1]) / (now[0] - start[0])
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A run is a sequence of rounds on one long-lived deployment, the
// main one. Each round drives a share of the measured phase on it,
// makes the workload's graceful restarts and re-checks answers after
// the last, so acknowledged writes must have survived. Restarts keep
// what the daemons learned, so the measured shares continue one
// another as one phase would. Each round also boots a fresh
// deployment, replays the cold phase and rssOps further ops on it and
// reads the daemons' peak RSS (the first round's fresh deployment
// becomes the main one), for setup_s, cold_s and peak_rss_mb.
// Spreading every metric's samples over the whole run, instead of
// measuring each in a window of its own, keeps a slow spell of a
// shared host from landing on one metric only. setup_s and restart_s
// are medians over their samples; read_p50_ms and ops_per_s pool the
// measured shares. peak_rss_mb is a mean: a single read can land on
// either side of a garbage-collector heap step tens of MB high, and a
// median of six can too.
const rounds = 6

// verifyReads is how many reads each session checks after each round's
// restarts.
const verifyReads = 8

func runEndToEnd(cfg config, meta map[string]any) (result, error) {
	w := cfg.w
	m, err := newModel(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	total, steady := &tally{}, &tally{}
	var boots, colds, restarts, rsss, shareRates []float64
	var steadyWall, driverCPU time.Duration
	coldOps, warmOps, verifyOps := 0, 0, 0

	// cold boots a fresh deployment in dir, replays the cold phase and
	// then w.rssOps ops of the measured stream on it with the given
	// stream seed, and records the boot and cold times and the peak RSS.
	// Memory grows with the work done, so it is read at a fixed point
	// of the stream, not after a timed share that a slow host shortens.
	cold := func(dir string, streamSeed int64) (*deployment, []*stream, []*oracle, error) {
		dep, err := newDeployment(w, cfg.bin, dir, cfg.seed, false)
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := dep.boot()
		if err != nil {
			dep.kill()
			return nil, nil, nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, d.Seconds())
		streams, ors := make([]*stream, sessions), make([]*oracle, sessions)
		lists := make([][]op, sessions)
		for s := range streams {
			streams[s] = newStream(w, m, streamSeed, s)
			ors[s] = newOracle(m)
			lists[s] = streams[s].cold()
		}
		rs := clients(w, dep.front())
		t, wall := drive(rs, ors, listSource(lists))
		total.add(t)
		colds = append(colds, wall.Seconds())
		coldOps += t.attempted
		for s := range lists {
			lists[s] = lists[s][:0]
			for i := s; i < w.rssOps; i += sessions {
				lists[s] = append(lists[s], streams[s].next())
			}
		}
		t, _ = drive(rs, ors, listSource(lists))
		total.add(t)
		warmOps += t.attempted
		rss, err := dep.peakRSSMB()
		if err != nil {
			dep.kill()
			return nil, nil, nil, err
		}
		rsss = append(rsss, rss)
		return dep, streams, ors, nil
	}

	dep, streams, ors, err := cold(cfg.work, cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer dep.kill()
	share := time.Duration(cfg.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Each fresh deployment draws its own cold ops from the seed.
			fresh, _, _, err := cold(filepath.Join(cfg.work, "fresh"), cfg.seed*1_000+int64(r))
			if err != nil {
				return result{}, err
			}
			fresh.kill()
		}
		deadline := time.Now().Add(share)
		cpu0 := cpuTime()
		t, wall := drive(clients(w, dep.front()), ors, func(s int) (op, bool) {
			if time.Now().After(deadline) {
				return op{}, false
			}
			return streams[s].next(), true
		})
		driverCPU += cpuTime() - cpu0
		steadyWall += wall
		shareRates = append(shareRates, float64(len(t.readMs)+len(t.writeMs))/wall.Seconds())
		total.add(t)
		steady.add(t)
		for i := 0; i < w.restarts; i++ {
			d, err := dep.restart()
			if err != nil {
				return result{}, fmt.Errorf("round %d: restart: %w", r, err)
			}
			restarts = append(restarts, d.Seconds())
		}
		verified := make([]int, sessions)
		t, _ = drive(clients(w, dep.front()), ors, func(s int) (op, bool) {
			if verified[s] == verifyReads {
				return op{}, false
			}
			verified[s]++
			return streams[s].read(), true
		})
		total.add(t)
		verifyOps += t.attempted
	}
	meta["driver_cpu_frac"] = driverCPU.Seconds() / steadyWall.Seconds()
	if total.firstErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", total.firstErr)
	}
	meta["ops"] = map[string]int{"cold": coldOps, "warm": warmOps, "steady_reads": len(steady.readMs),
		"steady_writes": len(steady.writeMs), "verify": verifyOps}
	// read_p99_ms and cold_s vary too much from seed to seed to gate
	// (README.md has the spreads), so they are recorded here.
	meta["read_p99_ms"] = quantile(steady.readMs, 0.99)
	meta["cold_s"] = median(colds)
	meta["repeats"] = map[string][]float64{"setup_s": boots, "cold_s": colds, "restart_s": restarts, "peak_rss_mb": rsss, "ops_per_s": shareRates}
	return result{
		Correct:   total.wrong == 0,
		Attempted: total.attempted,
		Failed:    total.failed + total.wrong,
		Metrics: map[string]metric{
			"setup_s":     {median(boots), "s"},
			"ops_per_s":   {float64(len(steady.readMs)+len(steady.writeMs)) / steadyWall.Seconds(), "1/s"},
			"read_p50_ms": {quantile(steady.readMs, 0.5), "ms"},
			"restart_s":   {median(restarts), "s"},
			"peak_rss_mb": {mean(rsss), "MB"},
		},
	}, nil
}

// clients opens one keep-alive api.Client per session.
func clients(w workloadDef, addr string) []runner {
	rs := make([]runner, sessions)
	for s := range rs {
		c := api.NewClient(addr, api.ClientOptions{Proto: w.proto, Sessions: 1, Timeout: 30 * time.Second})
		rs[s] = clientRunner{c: c, tables: w.tables}
	}
	return rs
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
