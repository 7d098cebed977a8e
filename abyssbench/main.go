// Command abyssbench is the abyss1000 benchmark: four workloads covering
// the four ways the system is run (a simulated paper figure, served reads
// over the wire, durable TPC-C writes, CPU-bound embedded TATP), each
// measured end to end and, in a separate traced run, layer by layer. Every
// layer is timed from outside, around calls into the public packages, plus
// the accounting the program already returns (Result, LogStats, Reply
// elapsed times).
//
//	abyssbench --workload <sim-figure|serve-ycsb|tpcc-durable|tatp-embedded>
//	           --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer ones). The exit code is non-zero when a correctness check
// fails. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// run is the state of one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil in untraced runs

	ledger *ledger
	e2e    map[string]float64
	layer  map[string]float64
	failed []string // correctness checks that failed
}

var workloads = map[string]func(*run) error{
	"sim-figure":    simFigure,
	"serve-ycsb":    serveYCSB,
	"tpcc-durable":  tpccDurable,
	"tatp-embedded": tatpEmbedded,
}

// checkFail records a failed correctness check; ops operations of the run
// count as failed because of it.
func (r *run) checkFail(what string, ops uint64, err error) {
	r.failed = append(r.failed, fmt.Sprintf("%s: %v", what, err))
	r.ledger.fail(failCheck, ops)
	fmt.Printf("CHECK FAILED %s: %v\n", what, err)
}

// check records err, if any, as a failed check of ops operations.
func (r *run) check(what string, ops uint64, err error) {
	if err != nil {
		r.checkFail(what, ops, err)
		return
	}
	fmt.Printf("check ok: %s\n", what)
}

func main() {
	name := flag.String("workload", "", "workload: sim-figure, serve-ycsb, tpcc-durable or tatp-embedded")
	seed := flag.Int64("seed", 42, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "seconds of measurement")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: abyssbench --workload <%s> --seed <n> --seconds <s≥1> --trace <0|1>\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		ledger:  newLedger(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	printEnvironment(*name, r)
	if r.traced {
		r.tr = newTracer()
	}
	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "abyssbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.traced {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		printSelfTimes(r.tr.spans)
		dir := filepath.Join(".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = r.tr.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "abyssbench: writing the trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(r.tr.spans), path)
	}
	fmt.Printf("peak RSS including the checks: %.1f MB\n", peakRSSMB())
	emit(r)
	if len(r.failed) > 0 {
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable metric table and, as the last line, the
// result object.
func emit(r *run) {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer(), r.layer
	}
	metrics := make(map[string]metricOut, len(defs))
	fmt.Println("metrics:")
	for _, d := range defs {
		metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("  %-40s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Printf("ledger: %s\n", r.ledger)
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(r.failed) == 0, r.ledger.attempted, r.ledger.failedTotal(), metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "abyssbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printEnvironment records the hardware, toolchain and the confounders
// every result depends on.
func printEnvironment(name string, r *run) {
	fmt.Printf("workload: %s  seed=%d  seconds=%v  trace=%v\n", name, r.seed, r.seconds.Seconds(), r.traced)
	fmt.Printf("env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), readTrim("/proc/sys/kernel/osrelease"))
	fmt.Println("env: the load generator runs in the benchmark process and shares its cores with the engine and server; it is not pinned")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem holding dir (where fsync cost comes from).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
