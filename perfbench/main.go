// Command perfbench is the repository benchmark: one in-process origin (plus
// one recoding relay for the relay workload) serving a closed loop of two
// fetching clients over loopback TCP, timed end to end and layer by layer.
//
//	bash perfbench/run.sh --workload dense-128x4k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics from a separate traced
// phase. --workload all runs every workload in its own process. The last
// line of standard output is always the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
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

func main() {
	workloadName := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: media bytes, coefficient streams and jitter all derive from it")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var profile *os.File
	if *cpuprofile != "" {
		if profile, err = os.Create(*cpuprofile); err == nil {
			err = pprof.StartCPUProfile(profile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	in := makeInputs(w, *seed)
	dur := time.Duration(*seconds) * time.Second
	before := measureDrift()
	var res result
	if *traced == 1 {
		res, err = runTraced(w, in, dur)
	} else {
		res, err = runEndToEnd(w, in, dur)
	}
	after := measureDrift()
	if profile != nil {
		pprof.StopCPUProfile()
		profile.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(w.name, res)
	drift, _ := json.Marshal(map[string]driftProbe{"drift_before": before, "drift_after": after})
	fmt.Println(string(drift))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints one line per metric, by name with its unit.
func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// runAll runs every workload in a child process of its own, so peak RSS is
// per workload, and prints one combined result with workload-prefixed
// metric names.
func runAll(seed int64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:max(len(lines)-1, 0)] {
			fmt.Println(l)
		}
		var r result
		if json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s printed no result (%v)\n", w.name, runErr)
			return 1
		}
		all.Correct = all.Correct && r.Correct && runErr == nil
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, m := range r.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	out, _ := json.Marshal(all)
	fmt.Println(string(out))
	if !all.Correct {
		return 1
	}
	return 0
}
