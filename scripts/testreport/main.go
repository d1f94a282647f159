// Command testreport reads the events of `go test -json` on its standard
// input and prints what `go test` prints without -json — each package's
// result line, and the output of every test that failed — and then the ten
// slowest top-level tests of the run. It exits 1 if a test or a package
// failed.
//
//	go test -json ./... | go run ./scripts/testreport
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type event struct {
	Action  string
	Package string
	Test    string
	Elapsed float64
	Output  string
}

type timing struct {
	name    string
	elapsed float64
}

func main() {
	dec := json.NewDecoder(os.Stdin)
	held := map[string][]string{} // package and test → output not yet printed
	var timings []timing
	failed := false
	for {
		var e event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "testreport:", err)
			os.Exit(2)
		}
		key := e.Package + " " + e.Test
		switch e.Action {
		case "build-output":
			fmt.Print(e.Output)
		case "output":
			held[key] = append(held[key], e.Output)
		case "pass", "fail", "skip":
			failed = failed || e.Action == "fail"
			if e.Action == "fail" || e.Test == "" {
				for _, line := range held[key] {
					if e.Action == "fail" || line != "PASS\n" {
						fmt.Print(line)
					}
				}
			}
			delete(held, key)
			if e.Action != "skip" && e.Test != "" && !strings.Contains(e.Test, "/") {
				timings = append(timings, timing{e.Package + "." + e.Test, e.Elapsed})
			}
		}
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].elapsed > timings[j].elapsed })
	fmt.Println("==> the ten slowest tests")
	for _, t := range timings[:min(10, len(timings))] {
		fmt.Printf("%8.2fs  %s\n", t.elapsed, t.name)
	}
	if failed {
		os.Exit(1)
	}
}
