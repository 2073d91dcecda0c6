// Command bfbench is the repository's one end-to-end benchmark: it builds
// the whole BlastFunction stack in this process (loopback sockets, no
// child processes), drives it over real HTTP from the gateway to the
// board, checks every reply, and reports the end-to-end metrics and a
// per-layer ledger under the names fixed in metrics.go. See README.md.
//
//	bfbench -workload small_local -seed 1 -seconds 20 -trace 0
//	bfbench -compare out/a.json out/b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// watchdog ends a run that hangs, well inside the driver's 180 s limit.
const watchdog = 150 * time.Second

// commit is stamped by run.sh (-ldflags -X); "unknown" outside git.
var commit = "unknown"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: small_local, bulk_remote, bulk_local or shared_board")
		seed         = flag.Int64("seed", 1, "seed of every generated input (payloads, arrival times)")
		seconds      = flag.Int("seconds", 20, "measured seconds, split over five replicates of the whole set-up")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, nothing wrapped; 1: per-layer metrics from a traced run")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results, traces and the temporary shm dir")
		appendTo     = flag.String("append", "", "result file to add this run to (a set of runs for -compare); default <out>/result-<workload>-trace<n>.json, overwritten")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bfbench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bfbench: need -workload (one of %v), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		return 2
	}

	// Nothing may outlive the command: a hang or a signal ends the
	// process, after removing the one thing a kill would leave on disk.
	shmDir := shmDirIn(*outDir)
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bfbench: watchdog: run exceeded", watchdog)
		os.RemoveAll(shmDir)
		os.Exit(3)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(shmDir)
		os.Exit(130)
	}()

	outcome, err := runWorkload(w, *seed, timingFor(*seconds), *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		return 1
	}
	res := newRunResult(w, *seed, *seconds, *trace, outcome)
	printTable(os.Stdout, res)
	path := *appendTo
	if path == "" {
		path = filepath.Join(*outDir, fmt.Sprintf("result-%s-trace%d.json", w.name, *trace))
		os.Remove(path)
	}
	if err := appendResult(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		return 1
	}
	if *trace == 1 {
		if err := writeTrace(filepath.Join(*outDir, "trace-"+w.name+".json"), res, outcome.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bfbench:", err)
			return 1
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bfbench: FAILED:", p)
	}
	// Last line of standard output: the driver's contract.
	fmt.Println(contractLine(res, *trace == 1))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
