package main

// The metric catalogue. BENCHMARK.json lists the same names and units
// (TestCatalogueMatchesBenchmarkJSON keeps the two in step). Every run
// prints every metric of its kind: the end-to-end ones without tracing,
// the per-layer ones with it. A per-layer metric of a layer the workload
// does not exercise reads 0.

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"goodput_tps", "txn/s"},
	{"lat_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
}

// simPointNames are the sim-figure points, in run order.
var simPointNames = []string{
	simClockPoint,
	"ycsb-w-dl_detect", "ycsb-w-no_wait", "ycsb-w-wait_die", "ycsb-w-timestamp",
	"ycsb-w-mvcc", "ycsb-w-occ", "ycsb-w-hstore",
	"ycsb-ro-256",
	"tpcc-4wh-no_wait", "tpcc-4wh-timestamp",
}

var tpccTxnKeys = []string{"payment", "new_order", "order_status", "delivery", "stock_level"}

var tatpTxnKeys = []string{
	"get_subscriber_data", "get_new_destination", "get_access_data",
	"update_subscriber_data", "update_location",
	"insert_call_forwarding", "delete_call_forwarding",
}

var engineComponents = []string{"useful", "abort", "index", "manager", "wait", "idle"}

func perLayer() []metricDef {
	var m []metricDef
	for _, p := range simPointNames {
		if p == simClockPoint {
			m = append(m, metricDef{"sim." + p + ".host_ns_per_ts", "ns"})
		} else {
			m = append(m, metricDef{"sim." + p + ".host_us_per_txn", "us"})
		}
	}
	m = append(m,
		metricDef{"wire.rtt_p50_us", "us"},
		metricDef{"wire.rtt_p99_us", "us"},
		metricDef{"wire.overhead_p50_us", "us"},
		metricDef{"server.elapsed_p50_us", "us"},
		metricDef{"server.elapsed_p99_us", "us"},
		metricDef{"codec.ns_per_op", "ns"},
		metricDef{"session.invoke_p50_us", "us"},
		metricDef{"session.capacity_tps", "txn/s"},
		metricDef{"engine.capacity_tps", "txn/s"},
		metricDef{"session.queue_depth_p99", "count"},
		metricDef{"session.server_shed", "count"},
		metricDef{"load.late_p99_us", "us"},
		metricDef{"load.late_max_us", "us"},
		metricDef{"session.elapsed_p50_us", "us"},
		metricDef{"session.elapsed_p99_us", "us"},
		metricDef{"wal.commits_per_sync", "count"},
		metricDef{"wal.bytes_per_commit", "B"},
		metricDef{"wal.log_us_per_commit", "us"},
		metricDef{"wal.wait_us_per_sync", "us"},
		metricDef{"recover.s", "s"},
		metricDef{"recover.mb_per_s", "MB/s"},
	)
	for _, t := range tpccTxnKeys {
		m = append(m, metricDef{"txn." + t + ".p50_us", "us"})
	}
	for _, t := range tatpTxnKeys {
		m = append(m, metricDef{"txn." + t + ".p50_us", "us"})
	}
	m = append(m, metricDef{"engine.commit_ratio", "ratio"})
	for _, c := range engineComponents {
		m = append(m, metricDef{"engine." + c + "_ns_per_commit", "ns"})
	}
	return append(m,
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"},
	)
}
