package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"abyss1000/abyss"
)

// The sim-figure windows: a quarter of abyss-bench's quick scale, so the
// eleven points take about two host seconds and a run repeats them.
const (
	simWarmup   = 50_000
	simMeasure  = 200_000
	simRows     = 16_384
	simMinPass  = 2
	simTSMethod = "clock"
	// simClockPoint is the timestamp micro-benchmark: no DB, no
	// transactions; its "commits" are timestamps.
	simClockPoint = "ts-clock-1024"
)

// simPoint is one point of a paper figure on RuntimeSim.
type simPoint struct {
	name        string
	workload    string // "" for the timestamp micro-benchmark
	scheme      string
	cores       int
	readPct     float64
	theta       float64
	partitioned bool
}

// simPoints are the figure axes the workload covers: the Fig 6 clock
// micro at 1024 cores, the Fig 9 axes (every scheme at 64 cores), the
// Fig 8 axes at 256 cores and the Fig 16 axes.
func simPoints() []simPoint {
	pts := []simPoint{{name: simClockPoint, cores: 1024}}
	for _, s := range []string{"DL_DETECT", "NO_WAIT", "WAIT_DIE", "TIMESTAMP", "MVCC", "OCC", "HSTORE"} {
		pts = append(pts, simPoint{
			name: "ycsb-w-" + strings.ToLower(s), workload: "ycsb", scheme: s, cores: 64,
			readPct: 0.5, theta: 0.6, partitioned: s == "HSTORE",
		})
	}
	pts = append(pts, simPoint{name: "ycsb-ro-256", workload: "ycsb", scheme: "NO_WAIT", cores: 256, readPct: 1})
	for _, s := range []string{"NO_WAIT", "TIMESTAMP"} {
		pts = append(pts, simPoint{name: "tpcc-4wh-" + strings.ToLower(s), workload: "tpcc", scheme: s, cores: 64})
	}
	return pts
}

// simPin is the simulated outcome of one point; equal seeds must give
// equal pins. The timestamp micro counts timestamps in Commits.
type simPin struct {
	Commits   uint64            `json:"commits"`
	Aborts    uint64            `json:"aborts"`
	Breakdown map[string]uint64 `json:"breakdown,omitempty"`
}

func (p simPin) equal(o simPin) bool {
	if p.Commits != o.Commits || p.Aborts != o.Aborts || len(p.Breakdown) != len(o.Breakdown) {
		return false
	}
	for k, v := range p.Breakdown {
		if o.Breakdown[k] != v {
			return false
		}
	}
	return true
}

// pinsJSON maps seed -> point -> the simulated outcome the engine gave
// when the benchmark was written. A change to the simulated schedule
// fails the check; so does a change that only moves host time, never.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]simPin, error) {
	var pins map[string]map[string]simPin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// checkPins compares one pass against the pinned outcomes (when the seed
// is pinned) and against a reference pass of the same run.
func checkPins(got map[string]simPin, pinned, ref map[string]simPin) error {
	for _, name := range simPointNames {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("point %s missing", name)
		}
		if p, ok := pinned[name]; ok && !g.equal(p) {
			return fmt.Errorf("point %s: simulated outcome %+v differs from pinned %+v", name, g, p)
		}
		if r, ok := ref[name]; ok && !g.equal(r) {
			return fmt.Errorf("point %s: re-run gave %+v, first run %+v", name, g, r)
		}
	}
	return nil
}

// simTiming is the host cost of one point.
type simTiming struct {
	setup, host, cpu time.Duration
}

// runSimPoint opens a fresh simulated DB, builds the point's workload and
// runs it, timing BuildWorkload and Run (or Go) on the host.
func runSimPoint(pt simPoint, seed int64, tr *tracer, parent int) (simPin, simTiming, error) {
	var tm simTiming
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: pt.cores, Seed: seed})
	if err != nil {
		return simPin{}, tm, err
	}
	if pt.workload == "" {
		m, err := abyss.ParseTSMethod(simTSMethod)
		if err != nil {
			return simPin{}, tm, err
		}
		alloc := db.NewTimestampAllocator(m)
		counts := make([]uint64, pt.cores)
		c0, t0 := cpuTime(), time.Now()
		sp := tr.begin("Go", parent, 0)
		err = db.Go(func(p abyss.Proc) {
			for p.Now() < simMeasure {
				alloc.Next(p)
				counts[p.ID()]++
			}
		})
		tr.end(sp)
		tm.host, tm.cpu = time.Since(t0), cpuTime()-c0
		var pin simPin
		for _, n := range counts {
			pin.Commits += n
		}
		return pin, tm, err
	}
	params, err := abyss.DefaultWorkloadParams(pt.workload)
	if err != nil {
		return simPin{}, tm, err
	}
	switch pt.workload {
	case "ycsb":
		params.Rows = simRows
		params.ReadPct = pt.readPct
		params.Theta = pt.theta
		params.Partitioned = pt.partitioned
	case "tpcc":
		params.Warehouses = 4
		// Every worker's insert segment covers one insert per 2000
		// simulated cycles of the whole window, abyss-bench's sizing.
		params.InsertsPerWorker = (simWarmup+simMeasure)/2000 + 1024
	}
	t0 := time.Now()
	sp := tr.begin("BuildWorkload", parent, 0)
	wl, err := db.BuildWorkload(pt.workload, params)
	tr.end(sp)
	tm.setup = time.Since(t0)
	if err != nil {
		return simPin{}, tm, err
	}
	scheme, err := abyss.NewScheme(pt.scheme)
	if err != nil {
		return simPin{}, tm, err
	}
	c0, t0 := cpuTime(), time.Now()
	sp = tr.begin("Run", parent, 0)
	res, err := db.Run(scheme, wl, abyss.RunConfig{WarmupCycles: simWarmup, MeasureCycles: simMeasure, AbortBackoff: 1000})
	tr.end(sp)
	tm.host, tm.cpu = time.Since(t0), cpuTime()-c0
	if err != nil {
		return simPin{}, tm, err
	}
	pin := simPin{Commits: res.Commits, Aborts: res.Aborts}
	if pin.Breakdown, err = breakdownMap(res); err != nil {
		return simPin{}, tm, err
	}
	return pin, tm, nil
}

// breakdownMap reads Result.Breakdown through its stable JSON keys.
func breakdownMap(res abyss.Result) (map[string]uint64, error) {
	data, err := json.Marshal(res.Breakdown)
	if err != nil {
		return nil, err
	}
	var m map[string]uint64
	return m, json.Unmarshal(data, &m)
}

// simPass is one run of the whole point list.
type simPass struct {
	pins    map[string]simPin
	timings map[string]simTiming
	traced  bool
}

// totals sums a pass's host time in Run/Go, its BuildWorkload time, its
// CPU time and the simulated commits of its DB points.
func (p simPass) totals() (wall, setup, cpu time.Duration, commits uint64) {
	for name, t := range p.timings {
		wall += t.host
		setup += t.setup
		cpu += t.cpu
		if name != simClockPoint {
			commits += p.pins[name].Commits
		}
	}
	return
}

// simFigure repeats the point list serially until the run's seconds are
// spent (at least twice). In a traced run passes alternate untraced and
// traced, and the traced passes' extra wall time is the tracing overhead.
func simFigure(r *run) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	pinned, isPinned := pins[strconv.FormatInt(r.seed, 10)]
	fmt.Printf("sim-figure: %d points, warmup=%d measure=%d simulated cycles, rows=%d; seed pinned=%v\n",
		len(simPointNames), simWarmup, simMeasure, simRows, isPinned)
	var passes []simPass
	start := time.Now()
	for len(passes) < simMinPass || time.Since(start) < r.seconds {
		traced := r.traced && len(passes)%2 == 1
		var tr *tracer
		if traced {
			tr = r.tr
		}
		pass := simPass{pins: map[string]simPin{}, timings: map[string]simTiming{}, traced: traced}
		root := tr.begin("pass", -1, 0)
		for _, pt := range simPoints() {
			// One DB lives at a time: collecting the last point's DB
			// keeps peak memory that of the largest point, not of
			// whatever garbage the collector had not reached yet.
			freeMemory()
			sp := tr.begin("point:"+pt.name, root, 0)
			pin, tm, err := runSimPoint(pt, r.seed, tr, sp)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("point %s: %w", pt.name, err)
			}
			pass.pins[pt.name], pass.timings[pt.name] = pin, tm
		}
		tr.end(root)
		r.ledger.attempted += uint64(len(pass.pins))
		var ref map[string]simPin
		if len(passes) > 0 {
			ref = passes[0].pins
		}
		if err := checkPins(pass.pins, pinned, ref); err != nil {
			r.checkFail(fmt.Sprintf("sim-figure pass %d determinism", len(passes)+1), uint64(len(pass.pins)), err)
		} else {
			r.ledger.completed += uint64(len(pass.pins))
		}
		passes = append(passes, pass)
		w, _, _, _ := pass.totals()
		fmt.Printf("pass %d (traced=%v): wall_s=%.4f\n", len(passes), traced, w.Seconds())
	}
	if len(r.failed) == 0 {
		fmt.Printf("check ok: %d passes reproduce each other", len(passes))
		if isPinned {
			fmt.Print(" and the pinned outcomes")
		}
		fmt.Println()
	}
	if !isPinned {
		data, _ := json.Marshal(passes[0].pins)
		fmt.Printf("pin for seed %d: %s\n", r.seed, data)
	}

	var walls, tracedWalls, setups, goodputs, cpus, lats []float64
	perPoint := map[string][]float64{}
	for _, p := range passes {
		w, setup, cpu, commits := p.totals()
		if p.traced {
			tracedWalls = append(tracedWalls, w.Seconds())
			continue
		}
		walls = append(walls, w.Seconds())
		setups = append(setups, setup.Seconds())
		goodputs = append(goodputs, float64(commits)/w.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/float64(commits))
		// A figure point's latency: the pass's mean host time per
		// point. Points differ by 20x, so the median over points would
		// jump between two of them from run to run.
		lats = append(lats, w.Seconds()*1e3/float64(len(p.timings)))
		for name, t := range p.timings {
			n := float64(p.pins[name].Commits)
			if name == simClockPoint {
				perPoint[name] = append(perPoint[name], float64(t.host)/n)
			} else {
				perPoint[name] = append(perPoint[name], float64(t.host)/1e3/n)
			}
		}
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("wall_s (host seconds in Run/Go over the point list): %s\n", summary(walls))
	fmt.Printf("setup_s (BuildWorkload over the point list): %s\n", summary(setups))
	fmt.Printf("lat_p50_ms (mean host ms per point): %s\n", summary(lats))
	r.e2e["setup_s"] = median(setups)
	r.e2e["goodput_tps"] = median(goodputs)
	r.e2e["lat_p50_ms"] = median(lats)
	r.e2e["cpu_us_per_op"] = median(cpus)
	for _, name := range simPointNames {
		if name == simClockPoint {
			r.layer["sim."+name+".host_ns_per_ts"] = median(perPoint[name])
		} else {
			r.layer["sim."+name+".host_us_per_txn"] = median(perPoint[name])
		}
	}
	if r.traced {
		r.layer["trace.overhead_pct"] = (median(tracedWalls)/median(walls) - 1) * 100
	}
	return nil
}
