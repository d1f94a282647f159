package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig7Result holds per-use-case latency distributions.
type Fig7Result struct {
	Hists map[string]*metrics.Histogram
	Order []string
	// ResultHits is how many timed statements the result cache answered: 0,
	// as the figure times executions.
	ResultHits int64
}

// RunFig7 reproduces Figure 7: the query-runtime distribution of the four
// production use cases of Table I, each with its own connector and query
// shapes, executed on one multi-tenant cluster. The paper's claim is the
// spread: one engine configuration serves latencies from tens of
// milliseconds (Developer/Advertiser Analytics) to long-running ETL.
func RunFig7(opt Options) (*Fig7Result, error) {
	opt = opt.Defaults()
	n := 20
	if opt.Quick {
		n = 5
	}

	// The figure times executions: the advertiser band draws its keys from
	// 200 apps, which repeat, and a result-cache hit would time no query.
	cluster := presto.NewCluster(presto.ClusterConfig{Workers: opt.Workers, ThreadsPerWorker: 2, DisableResultCache: true})
	defer cluster.Close()

	// Provision the four use cases' catalogs.
	adv, err := workload.AdvertiserData("advertiser", 8, 200, 30)
	if err != nil {
		return nil, err
	}
	cluster.Register(adv)
	ab, err := workload.ABTestData("abtest", opt.Workers, 4000, 8)
	if err != nil {
		return nil, err
	}
	cluster.Register(ab)
	dir, err := os.MkdirTemp("", "presto-fig7-hive-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	hv, err := workload.LoadTPCHHive("warehouse", dir, opt.Scale, true)
	if err != nil {
		return nil, err
	}
	cluster.Register(hv)
	// ETL writes land in a separate managed catalog.
	cluster.Register(workload.LoadTPCHMemory("etl", opt.Scale*2))

	res := &Fig7Result{
		Hists: map[string]*metrics.Histogram{},
		Order: []string{"Dev/Advertiser Analytics", "A/B Testing", "Interactive Analytics", "Batch ETL"},
	}
	for _, name := range res.Order {
		res.Hists[name] = &metrics.Histogram{}
	}
	r := rand.New(rand.NewSource(5))

	interactive := workload.InteractiveQueries("warehouse")
	for i := 0; i < n; i++ {
		// Developer/Advertiser: selective sharded lookup (50ms-5s band).
		d, err := timeQuery(cluster, workload.AdvertiserQuery("advertiser", r.Intn(200)))
		if err != nil {
			return nil, fmt.Errorf("advertiser: %w", err)
		}
		res.Hists["Dev/Advertiser Analytics"].Record(d)

		// A/B testing: co-located join slice-and-dice (1s-25s band).
		d, err = timeQuery(cluster, workload.ABTestQuery("abtest", r.Intn(8)))
		if err != nil {
			return nil, fmt.Errorf("abtest: %w", err)
		}
		res.Hists["A/B Testing"].Record(d)

		// Interactive: exploratory warehouse queries (10s-30min band).
		d, err = timeQuery(cluster, interactive[i%len(interactive)])
		if err != nil {
			return nil, fmt.Errorf("interactive: %w", err)
		}
		res.Hists["Interactive Analytics"].Record(d)
	}
	// Batch ETL: fewer, much larger transform-and-write jobs.
	etlRuns := n / 4
	if etlRuns == 0 {
		etlRuns = 1
	}
	for i := 0; i < etlRuns; i++ {
		d, err := timeQuery(cluster, workload.ETLQuery("etl", "etl", i))
		if err != nil {
			return nil, fmt.Errorf("etl: %w", err)
		}
		res.Hists["Batch ETL"].Record(d)
	}
	res.ResultHits = cluster.ServingStats().Result.Hits
	return res, nil
}

// Report renders the CDF table (the textual form of Fig. 7's curves).
func (r *Fig7Result) Report() string {
	var sb strings.Builder
	sb.WriteString("Figure 7 — query runtime distribution per use case\n")
	for _, name := range r.Order {
		sb.WriteString(metrics.CDFTable(name, r.Hists[name]))
		sb.WriteString("\n")
	}
	// Shape check: medians are ordered across use cases.
	m := func(n string) time.Duration { return r.Hists[n].Quantile(0.5) }
	ok := m("Dev/Advertiser Analytics") <= m("A/B Testing") &&
		m("A/B Testing") <= m("Batch ETL") &&
		m("Dev/Advertiser Analytics") < m("Batch ETL")
	fmt.Fprintf(&sb, "shape check: advertiser <= abtest <= etl medians → %v\n", ok)
	return sb.String()
}
