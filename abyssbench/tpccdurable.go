package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"abyss1000/abyss"
)

const (
	tpccWarehouses = 2
	tpccCores      = 2
	tpccScheme     = "MVCC"
	tpccLightRate  = 800 // txn/s offered in the light open-loop phase
	tpccSatClients = 16
	tpccSetups     = 5
	// A light segment of 1.25 s holds about 1000 requests, so its p99
	// has ten samples beyond it.
	tpccLight = 1250 * time.Millisecond
	tpccSat   = 750 * time.Millisecond
	// Insert budgets are sized for tpccRateCeiling txn/s over the run's
	// length (about 2.3x the rate measured with a real fsync per commit
	// group). A faster engine cannot exhaust them: the saturation
	// segments stop issuing at their share of the budget, because TPC-C
	// panics on a worker once an insert segment is spent.
	tpccRateCeiling = 4000
)

// tpccParams is the full five-transaction TPC-C mix on 2 warehouses, with
// every worker's insert segments sized to cover inserts for secs seconds:
// NewOrder and Payment are each under half the mix, and each makes at most
// one insert per table per attempt (ORDER_LINE's segment is 15x).
func tpccParams(secs float64) (abyss.WorkloadParams, error) {
	p, err := abyss.DefaultWorkloadParams("tpcc")
	if err != nil {
		return p, err
	}
	p.Warehouses = tpccWarehouses
	p.Mix = "full"
	p.InsertsPerWorker = int(tpccRateCeiling*secs/2) + 1024
	return p, nil
}

// tpccDB is one opened durable TPC-C database with its serving session.
type tpccDB struct {
	db      *abyss.DB
	sess    *abyss.Session
	logPath string
}

func openTPCC(dir string, i int, seed int64, params abyss.WorkloadParams, tr *tracer) (*tpccDB, error) {
	t := &tpccDB{logPath: filepath.Join(dir, fmt.Sprintf("tpcc-%d.wal", i))}
	sink, err := abyss.CreateLogFile(t.logPath)
	if err != nil {
		return nil, err
	}
	tr.do("Open", -1, func(int) {
		t.db, err = abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: tpccCores, Seed: seed,
			Durability: &abyss.Durability{Sink: sink, Async: true}})
	})
	if err != nil {
		return nil, err
	}
	var wl abyss.Workload
	tr.do("BuildWorkload", -1, func(int) { wl, err = t.db.BuildWorkload("tpcc", params) })
	if err != nil {
		return nil, err
	}
	scheme, err := abyss.NewScheme(tpccScheme)
	if err != nil {
		return nil, err
	}
	tr.do("Serve", -1, func(int) { t.sess, err = t.db.Serve(scheme, wl, abyss.ServeConfig{}) })
	return t, err
}

// tpccRound is one light + saturation round through Session.Invoke.
type tpccRound struct {
	round
	elapsed []float64 // µs, Reply.Elapsed of completed light requests
}

// runTPCCRound offers the light segment, then the saturation segment,
// which stops after satLimit invocations if it gets that far.
func runTPCCRound(sess *abyss.Session, seed int64, satLimit int64, tr *tracer) tpccRound {
	tp := tpccRound{round: round{traced: tr != nil}}
	sched := poissonSchedule(seed, tpccLightRate, tpccLight)
	el := make([]float64, len(sched))
	root := tr.begin("phase:light", -1, 0)
	tp.light = openLoop(sched, 1, 0, func(i int) string {
		sp := tr.begin("Session.Invoke", root, uint64(seed)<<32|uint64(i))
		rep, err := sess.Invoke(abyss.Invocation{})
		tr.end(sp)
		k := sessionKind(rep, err)
		if k == "" {
			el[i] = float64(rep.Elapsed) / 1e3
		}
		return k
	})
	tr.end(root)
	for _, e := range el {
		if e > 0 {
			tp.elapsed = append(tp.elapsed, e)
		}
	}
	root = tr.begin("phase:saturation", -1, 0)
	tp.sat = closedLoop(tpccSatClients, tpccSat, satLimit, func(int) string {
		sp := tr.begin("Session.Invoke", root, 0)
		rep, err := sess.Invoke(abyss.Invocation{})
		tr.end(sp)
		return sessionKind(rep, err)
	})
	tr.end(root)
	fmt.Printf("  round (traced=%v): light %s; saturation %s, %.0f txn/s\n",
		tp.traced, tp.light.ledger, tp.sat.ledger, tp.sat.goodput())
	return tp
}

// tpccDurable measures durable writes: TPC-C's full mix served in-process
// with asynchronous group commit to a log file on disk, then the log
// recovered into a fresh DB.
func tpccDurable(r *run) error {
	dir := filepath.Join(".bench_build", fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	params, err := tpccParams(r.seconds.Seconds())
	if err != nil {
		return err
	}
	fmt.Printf("tpcc-durable: %s, %d workers, TPC-C full mix, %d warehouses, InsertsPerWorker=%d; light phase open-loop Poisson %d txn/s, saturation %d closed-loop clients\n",
		tpccScheme, tpccCores, tpccWarehouses, params.InsertsPerWorker, tpccLightRate, tpccSatClients)
	fmt.Printf("env: WAL on %s (%s); flush policy async group commit, 100us window, 64 KiB (defaults)\n", dir, fsType(dir))

	var setups []float64
	var t *tpccDB
	for i := 0; i < tpccSetups; i++ {
		freeMemory()
		t0 := time.Now()
		if t, err = openTPCC(dir, i, r.seed, params, r.tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < tpccSetups-1 {
			if _, err := t.sess.Drain(); err != nil {
				return err
			}
			if err := t.db.CloseLog(); err != nil {
				return err
			}
			os.Remove(t.logPath)
		}
	}
	fmt.Printf("setup_s (Open + BuildWorkload + Serve): %s\n", summary(setups))
	r.e2e["setup_s"] = median(setups)

	// Every worker gets half of the invocations (round robin), and each
	// invocation makes at most one insert per table, so issuing no more
	// than the per-worker budget in total keeps every segment in bounds.
	// The light segments take about 20% more than their mean arrivals;
	// the saturation segments share the rest.
	n := roundPlan(r.seconds, tpccLight, tpccSat)
	lightShare := int64(float64(tpccLightRate) * tpccLight.Seconds() * 1.2)
	satLimit := int64(params.InsertsPerWorker)/int64(n) - lightShare
	var rs rounds
	var elapsed []float64
	for i := 0; i < n; i++ {
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
		}
		tp := runTPCCRound(t.sess, roundSeed(r.seed, i), satLimit, tr)
		rs = append(rs, tp.round)
		elapsed = append(elapsed, tp.elapsed...)
	}
	all := rs.ledger()

	var res abyss.Result
	r.tr.do("Drain", -1, func(int) { res, err = t.sess.Drain() })
	if err != nil {
		return err
	}
	// Peak memory of set-up and serving; the checks below hold two state
	// dumps and a second DB, which are the benchmark's, not the system's.
	r.e2e["peak_rss_mb"] = peakRSSMB()
	records, bytes, syncs := t.db.LogStats()
	r.tr.do("CloseLog", -1, func(int) { err = t.db.CloseLog() })
	if err != nil {
		return err
	}
	var live string
	r.tr.do("StateDump", -1, func(int) { live = t.db.StateDump() })
	fmt.Printf("server: offered=%d commits=%d aborts=%d shed=%d deadlined=%d; log records=%d bytes=%d syncs=%d\n",
		res.Offered, res.Commits, res.Aborts, res.Shed, res.Deadlined, records, bytes, syncs)

	r.ledger.add(all)
	ops := all.attempted
	r.check("tpcc-durable client ledger closes", ops, all.check())
	r.check("tpcc-durable insert budget covers every insert attempt", ops, budgetCheck(res, params.InsertsPerWorker, "Payment", "NewOrder"))
	logPath := t.logPath
	t = nil // the live DB is done with; recovery builds a second one
	freeMemory()
	recS, recMB, err := recoverAndCompare(logPath, r.seed, params, live, r.tr)
	r.check("tpcc-durable recovered state equals the live state", ops, err)

	rs.endToEnd(r)

	if syncs > 0 && records > 0 {
		r.layer["wal.commits_per_sync"] = float64(records) / float64(syncs)
		r.layer["wal.bytes_per_commit"] = float64(bytes) / float64(records)
		r.layer["wal.wait_us_per_sync"] = float64(res.MeasureCycles) / 1e3 / float64(syncs)
	}
	if bd, err := breakdownMap(res); err == nil && res.Commits > 0 {
		r.layer["wal.log_us_per_commit"] = float64(bd["log"]) / 1e3 / float64(res.Commits)
	}
	r.layer["session.elapsed_p50_us"] = percentile(elapsed, 0.50)
	r.layer["session.elapsed_p99_us"] = percentile(elapsed, 0.99)
	r.layer["session.queue_depth_p99"] = float64(res.QueueDepth.P99())
	r.layer["session.server_shed"] = float64(res.Shed)
	rs.lateness(r)
	r.layer["recover.s"] = recS
	r.layer["recover.mb_per_s"] = recMB
	txnLayers(r, res, map[string]string{
		"Payment": "payment", "NewOrder": "new_order", "OrderStatus": "order_status",
		"Delivery": "delivery", "StockLevel": "stock_level",
	})
	engineLayers(r, res)
	if r.traced {
		r.layer["trace.overhead_pct"] = rs.overhead()
	}
	return nil
}

// recoverAndCompare replays the log file into a fresh DB with the same
// catalog and compares its state with the live one. It returns the
// seconds DB.Recover took and the log megabytes it replayed per second.
func recoverAndCompare(path string, seed int64, params abyss.WorkloadParams, live string, tr *tracer) (float64, float64, error) {
	stream, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: tpccCores, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	if _, err := db.BuildWorkload("tpcc", params); err != nil {
		return 0, 0, err
	}
	var info abyss.RecoverInfo
	t0 := time.Now()
	tr.do("Recover", -1, func(int) { info, err = db.Recover(stream) })
	secs := time.Since(t0).Seconds()
	if err != nil {
		return secs, 0, err
	}
	mbps := float64(len(stream)) / 1e6 / secs
	fmt.Printf("recover: %d bytes in %.3fs (%.1f MB/s): %+v\n", len(stream), secs, mbps, info)
	var rec string
	tr.do("StateDump", -1, func(int) { rec = db.StateDump() })
	return secs, mbps, compareDumps(live, rec)
}

// compareDumps reports the first line where a recovered dump differs
// from the live one.
func compareDumps(live, rec string) error {
	if live == rec {
		return nil
	}
	line := 1
	for i := 0; i < len(live) && i < len(rec); i++ {
		if live[i] != rec[i] {
			return fmt.Errorf("state dumps differ at line %d (live %d bytes, recovered %d bytes)", line, len(live), len(rec))
		}
		if live[i] == '\n' {
			line++
		}
	}
	return fmt.Errorf("state dumps differ in length at line %d (live %d bytes, recovered %d bytes)", line, len(live), len(rec))
}

// budgetCheck confirms a per-worker insert budget covered the run: each
// named type's attempts across all workers, an upper bound on the inserts
// any one worker made for it, must fit the budget.
func budgetCheck(res abyss.Result, budget int, types ...string) error {
	for _, want := range types {
		found := false
		for _, t := range res.PerTxn {
			if t.Name != want {
				continue
			}
			found = true
			if n := t.Commits + t.Aborts; n > uint64(budget) {
				return fmt.Errorf("%s made %d attempts, more than the insert budget of %d per worker", want, n, budget)
			}
		}
		if !found {
			return fmt.Errorf("no per-transaction result for %s", want)
		}
	}
	return nil
}

// txnLayers reports each transaction type's median latency (from the
// engine's own per-type histogram) under the metric key keys maps it to.
func txnLayers(r *run, res abyss.Result, keys map[string]string) {
	for _, t := range res.PerTxn {
		if k, ok := keys[t.Name]; ok && t.Latency.Count() > 0 {
			r.layer["txn."+k+".p50_us"] = float64(t.Latency.P50()) / 1e3
		}
	}
}
