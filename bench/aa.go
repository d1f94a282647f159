package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Fresh processes and attempts. Engine defect 1 (README.md) makes about one
// statement in 40 000 lose rows or hang, whatever the statement: a worker's
// 10 ms monitor can finish a task between its registration and its start.
// One run in four of serving_mix, one in twenty-five of the analytic
// workloads has such a statement, and nothing under bench/ can prevent it.
// A measurement with a failed operation is therefore discarded whole and made
// again in a fresh process; no statement is ever asked twice, and the line
// that is reported comes from an attempt in which every output was right.
const (
	maxAttempts = 6
	// attemptBudget keeps an invocation inside the acceptance contract's 180 s:
	// no new attempt starts unless one more of the longest so far fits.
	attemptBudget = 150 * time.Second
)

// runChild makes one attempt: it runs the workload in a fresh process of this
// same binary, so every attempt starts from the same heap, and parses its
// result line.
func runChild(name string, seed int64, seconds float64, trace, attempt int) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self,
		"--workload", name,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--attempt", strconv.Itoa(attempt))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if _, failed := err.(*exec.ExitError); err != nil && !failed {
		return line, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		return line, fmt.Errorf("%s seed %d printed no result line (%v): %w", name, seed, err, jerr)
	}
	return line, nil
}

// measure reports the first attempt without a failed operation. When no
// attempt is clean, or an attempt dies without a result line, the last one
// stands: the line says correct=false (or err is set) and the caller exits
// non-zero. A traced line carries the number of attempts thrown away.
func measure(name string, seed int64, seconds float64, trace int) (resultLine, error) {
	start := time.Now()
	var longest time.Duration
	for attempt := 1; ; attempt++ {
		began := time.Now()
		line, err := runChild(name, seed, seconds, trace, attempt)
		if took := time.Since(began); took > longest {
			longest = took
		}
		if err == nil && trace == 1 {
			line.Metrics[discardedAttempts] = metricValue{Value: float64(attempt - 1), Unit: "count"}
		}
		clean := err == nil && line.Correct
		if clean || attempt == maxAttempts || time.Since(start)+longest > attemptBudget {
			if attempt > 1 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: attempt %d of %d reported (clean=%v), %d discarded\n",
					name, seed, attempt, maxAttempts, clean, attempt-1)
			}
			return line, err
		}
		what := fmt.Sprintf("%d of %d operations failed", line.Failed, line.Attempted)
		if err != nil {
			what = err.Error()
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: attempt %d discarded (%s); measuring again in a fresh process\n",
			name, seed, attempt, what)
	}
}

// spread is the distance between the quartiles of vals as a share of their
// median: the acceptance driver's measure of how steady a metric is.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals))
}

// aaRuns is the number of runs per set and workload in A/A mode, each with
// its own seed: what the acceptance driver makes.
const aaRuns = 10

// runAA runs two full sets of the same code: aaRuns runs per workload and
// set, run i of both sets with seed base+i. Per workload and end-to-end metric
// it prints both medians, how far apart they are as a share of the first, the
// larger of the two sets' spreads, and the bound. A metric fails the A/A when
// the two medians differ by more than its bound in either direction (the code
// is the same, so a second set that is much better is as wrong as one that is
// much worse) or when, setup_s excepted as in the acceptance rule, a spread
// exceeds it. Returns the process exit code.
func runAA(names []string, base int64, seconds float64) int {
	exit := 0
	fmt.Printf("%-12s %-16s %12s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "|B-A|/A", "spread", "bound", "verdict")
	for _, name := range names {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				line, err := measure(name, base+int64(i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !line.Correct {
					fmt.Printf("%-12s seed %d: %d of %d operations failed\n", name, base+int64(i), line.Failed, line.Attempted)
					exit = 1
				}
				for k, m := range line.Metrics {
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			diff := math.Abs(ratio(b-a, a))
			sp := math.Max(spread(sets[0][d.Name]), spread(sets[1][d.Name]))
			verdict := "ok"
			if diff > d.Bound || (d.Name != "setup_s" && sp > d.Bound) {
				verdict, exit = "EXCEEDS BOUND", 1
			} else if d.Name != "setup_s" && sp > d.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-12s %-16s %12.5g %12.5g %8.2f%% %8.2f%% %6.0f%%  %s\n",
				name, d.Name, a, b, 100*diff, 100*sp, 100*d.Bound, verdict)
		}
	}
	return exit
}
