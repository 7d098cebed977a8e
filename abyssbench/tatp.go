package main

import (
	"fmt"
	"time"

	"abyss1000/abyss"
	"abyss1000/workloads/tatp"
)

const (
	tatpSubscribers = 65536
	tatpCores       = 2
	tatpScheme      = "NO_WAIT"
	tatpRuns        = 5 // fresh DBs per run; medians are taken across them
	// Insert budgets are sized for tatpRateCeiling txn/s over each
	// window, about 4.5x the 1.1M txn/s two native workers complete here,
	// with InsertCallForwarding 2% of the mix. A check after each Run
	// confirms no worker's segment ran out.
	tatpRateCeiling = 5_000_000
	tatpInsertShare = 0.02
	tatpCheckWindow = 20 * time.Millisecond
)

// tatpDB opens a native DB and builds TATP on it.
func tatpDB(seed int64, budget int, tr *tracer) (*abyss.DB, *tatp.Workload, error) {
	var db *abyss.DB
	var err error
	tr.do("Open", -1, func(int) {
		db, err = abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: tatpCores, Seed: seed})
	})
	if err != nil {
		return nil, nil, err
	}
	p, err := abyss.DefaultWorkloadParams("tatp")
	if err != nil {
		return nil, nil, err
	}
	p.Subscribers = tatpSubscribers
	p.InsertsPerWorker = budget
	var wl abyss.Workload
	tr.do("BuildWorkload", -1, func(int) { wl, err = db.BuildWorkload("tatp", p) })
	if err != nil {
		return nil, nil, err
	}
	return db, wl.(*tatp.Workload), nil
}

// segmentsLeft confirms every worker's insert segment of t still has a
// free slot, so no insert was silently dropped for want of one.
func segmentsLeft(t *abyss.Table, budget int) error {
	for w := 0; w < t.NumSegs(); w++ {
		start, next := t.SegRange(w)
		if next-start >= budget {
			return fmt.Errorf("worker %d used all %d slots of its insert segment", w, budget)
		}
	}
	return nil
}

// tatpEmbedded measures the CPU-bound embedded path: DB.Run of TATP on
// two native workers, closed loop, on fresh DBs; then a short captured run
// outside the timed window is checked for serializability.
func tatpEmbedded(r *run) error {
	window := r.seconds / tatpRuns
	budget := int(tatpRateCeiling*window.Seconds()*tatpInsertShare) + 1024
	fmt.Printf("tatp-embedded: %s, %d workers, TATP %d subscribers, %d runs of %v, InsertsPerWorker=%d\n",
		tatpScheme, tatpCores, tatpSubscribers, tatpRuns, window, budget)
	var setups, goodput, p50, p99, cpu, tracedGoodput []float64
	var total abyss.Result
	perTxn := map[string]*abyss.Histogram{}
	for i := 0; i < tatpRuns; i++ {
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
		}
		freeMemory()
		t0 := time.Now()
		db, wl, err := tatpDB(roundSeed(r.seed, i), budget, tr)
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		s, err := abyss.NewScheme(tatpScheme)
		if err != nil {
			return err
		}
		var res abyss.Result
		c0 := cpuTime()
		tr.do("Run", -1, func(int) {
			res, err = db.Run(s, wl, abyss.RunConfig{MeasureCycles: uint64(window), AbortBackoff: 1000})
		})
		c := cpuTime() - c0
		if err != nil {
			return err
		}
		fmt.Printf("  run %d (traced=%v): setup %.3fs, commits=%d aborts=%d, %.0f txn/s\n",
			i, tr != nil, setup.Seconds(), res.Commits, res.Aborts, res.Throughput())
		r.ledger.attempted += res.Commits
		r.ledger.completed += res.Commits
		r.check(fmt.Sprintf("tatp-embedded run %d insert segments never ran out", i), res.Commits,
			segmentsLeft(wl.CallForwarding(), budget))
		if tr != nil {
			tracedGoodput = append(tracedGoodput, res.Throughput())
			continue
		}
		setups = append(setups, setup.Seconds())
		goodput = append(goodput, res.Throughput())
		p50 = append(p50, float64(res.Latency.P50())/1e6)
		p99 = append(p99, float64(res.Latency.P99())/1e6)
		cpu = append(cpu, float64(c.Microseconds())/float64(res.Commits))
		total.Commits += res.Commits
		total.Aborts += res.Aborts
		total.Breakdown.Merge(&res.Breakdown)
		for _, t := range res.PerTxn {
			h := perTxn[t.Name]
			if h == nil {
				h = new(abyss.Histogram)
				perTxn[t.Name] = h
			}
			h.Merge(&t.Latency)
		}
	}
	r.e2e["peak_rss_mb"] = peakRSSMB() // before the check's captured run
	if err := tatpCheck(r); err != nil {
		return err
	}
	fmt.Printf("setup_s (Open + BuildWorkload): %s\n", summary(setups))
	fmt.Printf("goodput_tps per run: %s\n", summary(goodput))
	fmt.Printf("lat_p50_ms per run: %s\n", summary(p50))
	fmt.Printf("lat_p99_ms per run: %s\n", summary(p99))
	fmt.Printf("cpu_us_per_op per run: %s\n", summary(cpu))
	fmt.Printf("latency samples (commits, engine histogram): %d\n", total.Commits)
	r.e2e["setup_s"] = median(setups)
	r.e2e["goodput_tps"] = median(goodput)
	r.e2e["lat_p50_ms"] = median(p50)
	r.e2e["cpu_us_per_op"] = median(cpu)
	engineLayers(r, total)
	for name, h := range perTxn {
		if h.Count() > 0 {
			r.layer["txn."+tatpKey(name)+".p50_us"] = float64(h.P50()) / 1e3
		}
	}
	if r.traced {
		r.layer["trace.overhead_pct"] = (median(goodput)/median(tracedGoodput) - 1) * 100
	}
	return nil
}

// tatpKey turns a TATP procedure name (GetNewDestination) into its metric
// key (get_new_destination).
func tatpKey(name string) string {
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			if i > 0 {
				b = append(b, '_')
			}
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// tatpCheck runs a short captured run on a fresh DB, outside the timed
// window, and verifies its history is serializable.
func tatpCheck(r *run) error {
	freeMemory()
	db, wl, err := tatpDB(r.seed, int(tatpRateCeiling*tatpCheckWindow.Seconds()*tatpInsertShare)+1024, r.tr)
	if err != nil {
		return err
	}
	s, err := abyss.NewScheme(tatpScheme)
	if err != nil {
		return err
	}
	var res abyss.Result
	r.tr.do("Run", -1, func(int) {
		res, err = db.Run(s, wl, abyss.RunConfig{MeasureCycles: uint64(tatpCheckWindow), AbortBackoff: 1000, Check: true})
	})
	if err != nil {
		return err
	}
	var rep *abyss.CheckReport
	r.tr.do("CheckSerializability", -1, func(int) { rep, err = db.CheckSerializability() })
	r.ledger.attempted += res.Commits
	if err == nil && !rep.OK() {
		err = fmt.Errorf("captured history of %d commits is not serializable: %v", res.Commits, rep)
	}
	if err != nil {
		r.checkFail("tatp-embedded captured run is serializable", res.Commits, err)
		return nil
	}
	r.ledger.completed += res.Commits
	fmt.Printf("check ok: tatp-embedded captured run of %d commits is serializable\n", res.Commits)
	return nil
}
