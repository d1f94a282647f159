// Command prestod starts a presto-repro server. By default it runs an
// in-process cluster of N worker nodes behind the HTTP client protocol
// (paper §III). With -coordinator or -worker it instead runs one node of a
// multi-process cluster: a coordinator that accepts worker registrations on
// /v1/node and schedules plan fragments over HTTP, or a worker that serves
// the task API and shuffle endpoints (§IV-E2).
//
// Every mode provisions the same demo catalogs — an in-memory default
// catalog, a TPC-H-style warehouse, and (optionally) an orcish lake
// directory — so a fresh server is immediately queryable with presto-cli.
// The memory catalogs are generated deterministically, so coordinator and
// workers started with the same -tpch-scale see identical data; writes in
// distributed mode stay local to the node that executed them (see
// DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/exec"
	"repro/internal/httpapi"
	"repro/internal/optimizer"
	"repro/internal/serving"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers = flag.Int("workers", 4, "number of in-process worker nodes (embedded mode)")
		threads = flag.Int("threads", 4, "executor threads per worker")
		scale   = flag.Float64("tpch-scale", 0.25, "TPC-H demo catalog scale factor (0 disables)")
		lakeDir = flag.String("lake", "", "directory for an orcish 'hive' catalog (empty disables)")
		noStats = flag.Bool("disable-stats", false, "disable cost-based optimization")
		noDyn   = flag.Bool("disable-dynamic-filters", false, "disable runtime dynamic join filters")

		spill    = flag.Bool("spill", false, "enable disk-backed spill for aggregations and join builds")
		spillDir = flag.String("spill-dir", "", "directory for spill files (empty = OS temp)")

		coordMode  = flag.Bool("coordinator", false, "run as a distributed-mode coordinator (no local workers; remote workers register via /v1/node)")
		workerMode = flag.Bool("worker", false, "run as a distributed-mode worker serving the task API")
		coordURL   = flag.String("coordinator-url", "http://127.0.0.1:8080", "coordinator base URL (worker mode)")
		publicURL  = flag.String("public-url", "", "URL other nodes use to reach this process (default http://<addr>)")
	)
	flag.Parse()
	if *coordMode && *workerMode {
		log.Fatal("-coordinator and -worker are mutually exclusive")
	}

	sp := spillOpts{enabled: *spill, dir: *spillDir}
	switch {
	case *coordMode:
		runCoordinator(*addr, *scale, *lakeDir, *noStats, *noDyn, sp)
	case *workerMode:
		runWorker(*addr, *coordURL, *publicURL, *threads, *scale, *lakeDir, sp)
	default:
		runEmbedded(*addr, *workers, *threads, *scale, *lakeDir, *noStats, *noDyn, sp)
	}
}

// spillOpts bundles the disk-backed-execution flags.
type spillOpts struct {
	enabled bool
	dir     string
}

// provisionCatalogs registers the demo catalogs on a shared catalog manager.
// Used by the coordinator and worker modes; embedded mode goes through
// presto.Cluster instead.
func provisionCatalogs(catalog *coordinator.CatalogManager, scale float64, lakeDir string) {
	catalog.Register(memconn.New("memory"))
	if scale > 0 {
		catalog.Register(workload.LoadTPCHMemory("tpch", scale))
		log.Printf("registered catalog tpch (scale %.2f)", scale)
	}
	if lakeDir != "" {
		hv, err := workload.LoadTPCHHive("hive", lakeDir, scale, true)
		if err != nil {
			log.Fatalf("loading lake: %v", err)
		}
		catalog.Register(hv)
		log.Printf("registered catalog hive at %s", lakeDir)
	}
}

func runEmbedded(addr string, workers, threads int, scale float64, lakeDir string, noStats, noDyn bool, sp spillOpts) {
	cluster := presto.NewCluster(presto.ClusterConfig{
		Workers:               workers,
		ThreadsPerWorker:      threads,
		DisableStats:          noStats,
		DisableDynamicFilters: noDyn,
		SpillEnabled:          sp.enabled,
		SpillDir:              sp.dir,
	})
	defer cluster.Close()

	if scale > 0 {
		cluster.Register(workload.LoadTPCHMemory("tpch", scale))
		log.Printf("registered catalog tpch (scale %.2f)", scale)
	}
	if lakeDir != "" {
		hv, err := workload.LoadTPCHHive("hive", lakeDir, scale, true)
		if err != nil {
			log.Fatalf("loading lake: %v", err)
		}
		cluster.Register(hv)
		log.Printf("registered catalog hive at %s", lakeDir)
	}

	srv := httpapi.NewServer(cluster.Coordinator)
	log.Printf("prestod listening on http://%s (workers=%d threads=%d)", addr, workers, threads)
	fmt.Printf("try: presto-cli -server http://%s -e 'SHOW TABLES FROM tpch'\n", addr)
	log.Fatal(http.ListenAndServe(addr, srv.Handler()))
}

func runCoordinator(addr string, scale float64, lakeDir string, noStats, noDyn bool, sp spillOpts) {
	catalog := coordinator.NewCatalogManager()
	provisionCatalogs(catalog, scale, lakeDir)

	var switches exec.Switches
	if noDyn {
		switches |= exec.DisableDynamicFilters
	}
	optCfg := optimizer.DefaultConfig()
	optCfg.UseStats = !noStats
	// The serving tier runs here too; with no local node pool the result
	// cache is bounded by its own byte budget rather than pool accounting.
	tier := &serving.Tier{
		Plans:   serving.NewPlanCache(serving.PlanCacheConfig{}),
		Results: serving.NewResultCache(serving.ResultCacheConfig{}),
	}
	coord := coordinator.New(catalog, nil, coordinator.Config{
		DefaultCatalog: "memory",
		Optimizer:      optCfg,
		Task: exec.TaskConfig{
			SpillEnabled: sp.enabled,
			SpillDir:     sp.dir,
			Switches:     switches,
		},
		Registry: coordinator.NewWorkerRegistry(),
		// One client, and so one connection pool, for everything this node
		// says to its peers (http.DefaultClient keeps two idle connections a
		// host and redials the rest every statement).
		WorkerClient: shuffle.NewClusterClient(),
		Serving:      tier,
	})

	srv := httpapi.NewServer(coord)
	log.Printf("prestod coordinator listening on http://%s (waiting for workers on /v1/node)", addr)
	log.Fatal(http.ListenAndServe(addr, srv.Handler()))
}

func runWorker(addr, coordURL, publicURL string, threads int, scale float64, lakeDir string, sp spillOpts) {
	if publicURL == "" {
		publicURL = "http://" + addr
	}
	catalog := coordinator.NewCatalogManager()
	provisionCatalogs(catalog, scale, lakeDir)

	client := shuffle.NewClusterClient() // registration, heartbeats and shuffle fetches share its pool

	// Register with the coordinator, retrying while it comes up; the
	// assigned node id becomes the worker id so memory pools and metrics
	// are attributed consistently cluster-wide.
	var id int
	for attempt := 0; ; attempt++ {
		var err error
		id, err = httpapi.RegisterWorker(client, coordURL, publicURL)
		if err == nil {
			break
		}
		if attempt >= 30 {
			log.Fatalf("registering with coordinator %s: %v", coordURL, err)
		}
		log.Printf("coordinator not ready (%v), retrying", err)
		time.Sleep(time.Second)
	}
	log.Printf("registered with %s as worker %d", coordURL, id)

	w := exec.NewWorker(id, catalog, exec.WorkerConfig{Threads: threads, Task: exec.TaskConfig{
		SpillEnabled: sp.enabled,
		SpillDir:     sp.dir,
	}})
	defer w.Close()
	srv := httpapi.NewWorkerServer(w, catalog)
	srv.Client = client

	// Heartbeat: re-register periodically so the coordinator's liveness
	// window (WorkerRegistry.TTL) stays open.
	go func() {
		for range time.Tick(3 * time.Second) {
			if _, err := httpapi.RegisterWorker(client, coordURL, publicURL); err != nil {
				log.Printf("heartbeat: %v", err)
			}
		}
	}()

	log.Printf("prestod worker %d listening on http://%s (threads=%d)", id, addr, threads)
	log.Fatal(http.ListenAndServe(addr, srv.Handler()))
}
