// Command bench is the repository's benchmark. It times three registered
// experiments from outside the simulator: one run is
// core.ExperimentByID(id).Run(seed) plus rendering the returned tables, and
// every run's rendered bytes are checked against a reference sha256 digest.
// sweep.SetWorkers is the only setting it touches.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1 [-json out.json]
//	bash bench/run.sh --workload statecache --seed 3 --seconds 30 --trace 0
//
// The first form runs each workload in fresh child processes
// ("sessions"), round-robin across workloads so host drift spreads over all
// of them, then one CPU- and allocation-profiled session per workload, and
// prints a report. The second form measures one workload for a time budget
// and prints one JSON object as its last line: the end-to-end metrics with
// -trace 0, the per-layer metrics of a profiled session with -trace 1.
// README.md defines every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one registered experiment the benchmark times.
type workload struct {
	id      string // registry id of the experiment
	workers int    // sweep workers; 0 means GOMAXPROCS, the CLI default
	warm    int    // warm runs per timed session in the full report
	traced  int    // warm runs in the profiled session (about 5 s of CPU)
}

// workloads stress different layers; README.md gives each one's rationale
// and why none keeps a heap of more than about 20 MB.
var workloads = []workload{
	{id: "statecache", workers: 1, warm: 10, traced: 20},
	{id: "retrystorm", workers: 1, warm: 12, traced: 30},
	{id: "faasscale", workers: 0, warm: 20, traced: 40},
}

// sessions is the number of fresh processes each workload is timed in;
// setup_s, peak_rss_mb and the allocation counts are medians over them.
const sessions = 10

func workloadByID(id string) (workload, bool) {
	for _, w := range workloads {
		if w.id == id {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) sweepWorkers() int {
	if w.workers > 0 {
		return w.workers
	}
	return runtime.GOMAXPROCS(0)
}

// spec asks a child process for one session.
type spec struct {
	workload string
	seed     uint64
	warm     int           // minimum warm runs
	budget   time.Duration // minimum warm-run time
	profile  bool
}

func main() {
	var sp spec
	name := flag.String("workload", "", "measure one workload for -seconds and print one JSON line (default: full report over every workload)")
	flag.Uint64Var(&sp.seed, "seed", 1, "experiment seed")
	seconds := flag.Int("seconds", 30, "with -workload: warm-run time, split across the sessions")
	trace := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a profiled session")
	jsonPath := flag.String("json", "", "full report: also write every metric, the raw run times and a host fingerprint to this file")
	child := flag.Bool("session", false, "run one session in this process and print it as JSON (the benchmark re-executes itself this way)")
	flag.IntVar(&sp.warm, "warm", 1, "with -session: minimum warm runs")
	flag.DurationVar(&sp.budget, "budget", 0, "with -session: minimum warm-run time")
	flag.BoolVar(&sp.profile, "profile", false, "with -session: CPU- and allocation-profile the warm runs")
	spawnNs := flag.Int64("spawn-ns", 0, "with -session: the parent's wall clock at spawn, in Unix ns")
	flag.Parse()
	sp.workload = *name

	var err error
	switch {
	case *child:
		err = childMain(sp, time.Unix(0, *spawnNs))
	case *name != "":
		err = measureMain(sp, *seconds, *trace)
	default:
		err = reportMain(sp.seed, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(sp spec, spawn time.Time) error {
	s, err := runSession(sp, spawn)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// spawn runs one session in a fresh copy of this binary and waits for it.
func spawn(sp spec) (session, error) {
	exe, err := os.Executable()
	if err != nil {
		return session{}, err
	}
	cmd := exec.Command(exe, "-session",
		"-workload", sp.workload,
		"-seed", strconv.FormatUint(sp.seed, 10),
		"-warm", strconv.Itoa(sp.warm),
		"-budget", sp.budget.String(),
		"-profile="+strconv.FormatBool(sp.profile),
		"-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return session{}, fmt.Errorf("%s session: %w", sp.workload, err)
	}
	var s session
	if err := json.Unmarshal(out, &s); err != nil {
		return session{}, fmt.Errorf("%s session output: %w", sp.workload, err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s session: setup %.3f s, %d warm runs, fastest %.4f s\n",
		sp.workload, s.SetupS, len(s.WallS), slices.Min(s.WallS))
	return s, nil
}

// runSet collects one workload's sessions.
type runSet struct {
	w       workload
	seed    uint64
	timed   []session
	traced  *session
	crashed int // sessions that exited without a result
}

func (rs *runSet) add(s session, err error) {
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench:", err)
		rs.crashed++
	case s.Layers != nil:
		rs.traced = &s
	default:
		rs.timed = append(rs.timed, s)
	}
}

// check counts every run, cold ones included, against the committed digest
// for (workload, seed). For a seed without one, every run of every session
// must match the first cold run. A crashed session counts as one failed run.
func (rs *runSet) check() (ref string, attempted, failed int) {
	ref, known := referenceDigests[rs.w.id][rs.seed]
	all := rs.timed
	if rs.traced != nil {
		all = append(slices.Clip(all), *rs.traced)
	}
	for _, s := range all {
		for _, d := range s.Digests {
			if !known && attempted == 0 {
				ref = d
			}
			attempted++
			if d != ref {
				failed++
			}
		}
	}
	return ref, attempted + rs.crashed, failed + rs.crashed
}

// measureMain is the single-workload form: it prints one JSON line.
func measureMain(sp spec, seconds, trace int) error {
	w, ok := workloadByID(sp.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", sp.workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	rs := &runSet{w: w, seed: sp.seed}
	total := time.Duration(seconds) * time.Second
	sp.warm = 1
	if trace == 0 {
		sp.budget = total / sessions
		for range sessions {
			rs.add(spawn(sp))
		}
	} else {
		// The untraced session is the base for trace.overhead.
		sp.budget = total / 2
		rs.add(spawn(sp))
		sp.profile = true
		rs.add(spawn(sp))
	}
	metrics, err := rs.endToEnd()
	if err == nil && trace == 1 {
		metrics, err = rs.perLayer(metrics["wall_s"].Value)
	}
	if err != nil {
		return err
	}
	_, attempted, failed := rs.check()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for k, m := range metrics {
		out.Metrics[k] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// host identifies the machine a report was taken on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// workloadReport is one workload's entry in the -json file.
type workloadReport struct {
	Workload  string          `json:"workload"`
	Workers   int             `json:"workers"`
	Digest    string          `json:"digest"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	Sessions  []session       `json:"sessions"`
}

// reportMain is the full form: every workload, timed and profiled.
func reportMain(seed uint64, jsonPath string) error {
	sets := make([]*runSet, len(workloads))
	for i, w := range workloads {
		sets[i] = &runSet{w: w, seed: seed}
	}
	for range sessions {
		for _, rs := range sets {
			rs.add(spawn(spec{workload: rs.w.id, seed: seed, warm: rs.w.warm}))
		}
	}
	for _, rs := range sets {
		rs.add(spawn(spec{workload: rs.w.id, seed: seed, warm: rs.w.traced, profile: true}))
	}

	h := fingerprint()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s %s/%s, seed %d\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, seed)
	var reports []workloadReport
	failedAny := false
	for _, rs := range sets {
		e2e, err := rs.endToEnd()
		if err != nil {
			return fmt.Errorf("%s: %w", rs.w.id, err)
		}
		layer, err := rs.perLayer(e2e["wall_s"].Value)
		if err != nil {
			return fmt.Errorf("%s: %w", rs.w.id, err)
		}
		ref, attempted, failed := rs.check()
		failedAny = failedAny || failed > 0
		printWorkload(rs, ref, attempted, failed, e2e, layer)
		for k, v := range layer {
			e2e[k] = v
		}
		var all []session
		all = append(all, rs.timed...)
		all = append(all, *rs.traced)
		reports = append(reports, workloadReport{rs.w.id, rs.timed[0].Workers, ref, attempted, failed, e2e, all})
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(struct {
			Host      host             `json:"host"`
			Seed      uint64           `json:"seed"`
			Workloads []workloadReport `json:"workloads"`
		}{h, seed, reports}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failedAny {
		return errors.New("some runs failed their digest check")
	}
	return nil
}

func printWorkload(rs *runSet, ref string, attempted, failed int, e2e, layer map[string]stat) {
	fmt.Printf("\n== %s  W=%d  digest %.16s…  fail_ratio %d/%d\n",
		rs.w.id, rs.timed[0].Workers, ref, failed, attempted)
	fmt.Printf("%-16s %-5s %11s %4s %11s %11s %11s %11s %16s\n", "metric", "unit", "value", "n", "min", "q1", "median", "q3", "tail")
	for _, name := range endToEndNames {
		m := e2e[name]
		tail := ""
		if m.TailPct > 0 {
			tail = fmt.Sprintf("p%.1f %.4g", m.TailPct, m.Tail)
		}
		fmt.Printf("%-16s %-5s %11.5g %4d %11.5g %11.5g %11.5g %11.5g %16s\n",
			name, m.Unit, m.Value, m.N, m.Min, m.Q1, m.Median, m.Q3, tail)
	}
	var samples int64
	for _, n := range rs.traced.Layers.Samples {
		samples += n
	}
	fmt.Printf("%-12s %12s %8s %12s   (profiled: %d runs, %d samples, trace.overhead %+.3f)\n",
		"layer", "cpu_ms/run", "samples", "alloc_mb/run", len(rs.traced.WallS), samples, layer["trace.overhead"].Value)
	for _, l := range layers {
		share := 0.0
		if samples > 0 {
			share = 100 * float64(rs.traced.Layers.Samples[l]) / float64(samples)
		}
		fmt.Printf("%-12s %12.3f %7.1f%% %12.3f\n", l,
			layer["layer."+l+".cpu_ms"].Value, share, layer["layer."+l+".alloc_mb"].Value)
	}
}
