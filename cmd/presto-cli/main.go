// Command presto-cli is an interactive SQL client for prestod, speaking the
// HTTP client protocol: it POSTs statements and long-polls nextUri for
// incremental result batches (paper §IV-B1). With --stats it fetches the
// query's per-operator statistics from /v1/query/{id}/stats after the
// result drains and prints them as a table.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

type response struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Columns []string        `json:"columns,omitempty"`
	Data    [][]interface{} `json:"data,omitempty"`
	NextURI string          `json:"nextUri,omitempty"`
	Error   string          `json:"error,omitempty"`
	QueryID string          `json:"queryId,omitempty"`
}

// Minimal mirrors of coordinator.QueryStats — the CLI decodes only the
// fields it prints, so it stays decoupled from internal packages.
type opStats struct {
	Name         string `json:"name"`
	RowsIn       int64  `json:"rowsIn"`
	RowsOut      int64  `json:"rowsOut"`
	WallNanos    int64  `json:"wallNanos"`
	CPUNanos     int64  `json:"cpuNanos"`
	BlockedNanos int64  `json:"blockedNanos"`
	PeakMemBytes int64  `json:"peakMemBytes"`
}

type pipelineStats struct {
	Pipeline  int       `json:"pipeline"`
	Drivers   int       `json:"drivers"`
	Operators []opStats `json:"operators"`
}

type stageStats struct {
	Fragment  int             `json:"fragment"`
	Tasks     int             `json:"tasks"`
	CPUNanos  int64           `json:"cpuNanos"`
	Pipelines []pipelineStats `json:"pipelines"`
}

type queryStats struct {
	State        string       `json:"state"`
	ElapsedNanos int64        `json:"elapsedNanos"`
	CPUNanos     int64        `json:"cpuNanos"`
	SplitsTotal  int64        `json:"splitsTotal"`
	SplitsDone   int          `json:"splitsDone"`
	RowsRead     int64        `json:"rowsRead"`
	BytesRead    int64        `json:"bytesRead"`
	Stages       []stageStats `json:"stages"`
}

var showStats bool

func main() {
	var (
		server  = flag.String("server", "http://127.0.0.1:8080", "prestod address")
		execute = flag.String("e", "", "execute one statement and exit")
		catalog = flag.String("catalog", "", "default catalog")
	)
	flag.BoolVar(&showStats, "stats", false, "print per-operator statistics after each query")
	flag.Parse()

	if *execute != "" {
		if err := run(*server, *catalog, *execute); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("presto-cli — terminate statements with ';', exit with 'quit;'")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var stmt strings.Builder
	fmt.Print("presto> ")
	for scanner.Scan() {
		line := scanner.Text()
		stmt.WriteString(line)
		stmt.WriteString("\n")
		if !strings.Contains(line, ";") {
			fmt.Print("     -> ")
			continue
		}
		sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt.String()), ";"))
		stmt.Reset()
		if strings.EqualFold(sql, "quit") || strings.EqualFold(sql, "exit") {
			return
		}
		if sql != "" {
			if err := run(*server, *catalog, sql); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		fmt.Print("presto> ")
	}
}

func run(server, catalog, sql string) error {
	req, err := http.NewRequest("POST", server+"/v1/statement", bytes.NewBufferString(sql))
	if err != nil {
		return err
	}
	if catalog != "" {
		req.Header.Set("X-Presto-Catalog", catalog)
	}
	req.Header.Set("X-Presto-User", os.Getenv("USER"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	printedHeader := false
	rows := 0
	queryID := ""
	for {
		var doc response
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			resp.Body.Close()
			return err
		}
		resp.Body.Close()
		if doc.Error != "" {
			return fmt.Errorf("%s", doc.Error)
		}
		if doc.QueryID != "" {
			queryID = doc.QueryID
		}
		if !printedHeader && len(doc.Columns) > 0 {
			fmt.Println(strings.Join(doc.Columns, " | "))
			fmt.Println(strings.Repeat("-", 4*len(doc.Columns)+8))
			printedHeader = true
		}
		for _, row := range doc.Data {
			parts := make([]string, len(row))
			for i, v := range row {
				if v == nil {
					parts[i] = "NULL"
				} else {
					parts[i] = fmt.Sprint(v)
				}
			}
			fmt.Println(strings.Join(parts, " | "))
			rows++
		}
		if doc.NextURI == "" {
			fmt.Printf("(%d rows)\n", rows)
			if showStats && queryID != "" {
				printStats(server, queryID)
			}
			return nil
		}
		resp, err = http.Get(server + doc.NextURI)
		if err != nil {
			return err
		}
	}
}

// printStats fetches /v1/query/{id}/stats and prints the operator table.
func printStats(server, queryID string) {
	resp, err := http.Get(server + "/v1/query/" + queryID + "/stats")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintln(os.Stderr, "stats: HTTP", resp.StatusCode)
		return
	}
	var st queryStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		return
	}
	fmt.Printf("\nQuery %s: elapsed %s, cpu %s, splits %d/%d, read %d rows (%d B)\n",
		st.State, time.Duration(st.ElapsedNanos).Round(10*time.Microsecond),
		time.Duration(st.CPUNanos).Round(10*time.Microsecond),
		st.SplitsDone, st.SplitsTotal, st.RowsRead, st.BytesRead)
	for _, sg := range st.Stages {
		fmt.Printf("Fragment %d (%d tasks, cpu %s):\n",
			sg.Fragment, sg.Tasks, time.Duration(sg.CPUNanos).Round(10*time.Microsecond))
		for _, pl := range sg.Pipelines {
			fmt.Printf("  pipeline %d (%d drivers):\n", pl.Pipeline, pl.Drivers)
			for _, op := range pl.Operators {
				fmt.Printf("    %-20s rows %d/%d  wall %s  cpu %s  blocked %s  peak mem %d B\n",
					op.Name, op.RowsIn, op.RowsOut,
					time.Duration(op.WallNanos).Round(10*time.Microsecond),
					time.Duration(op.CPUNanos).Round(10*time.Microsecond),
					time.Duration(op.BlockedNanos).Round(10*time.Microsecond),
					op.PeakMemBytes)
			}
		}
	}
}
