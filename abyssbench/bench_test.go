package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"abyss1000/abyss"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 1, 2},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLedger(t *testing.T) {
	l := newLedger()
	l.attempted = 10
	l.completed = 7
	l.fail(failServerShed, 2)
	l.fail(failDeadlined, 1)
	if err := l.check(); err != nil {
		t.Fatalf("closing ledger rejected: %v", err)
	}
	o := newLedger()
	o.attempted, o.completed = 5, 5
	l.add(o)
	if l.attempted != 15 || l.completed != 12 || l.failedTotal() != 3 {
		t.Fatalf("add: %s", l)
	}
	l.completed-- // one operation lost
	if err := l.check(); err == nil {
		t.Fatal("a ledger that does not close passed")
	}
	if err := serverLedgerCheck(10, 7, 2, 1); err != nil {
		t.Fatalf("closing server ledger rejected: %v", err)
	}
	if err := serverLedgerCheck(10, 7, 2, 0); err == nil {
		t.Fatal("a server ledger that does not close passed")
	}
}

func TestCrossCheckRejectsDisagreement(t *testing.T) {
	l := newLedger()
	l.attempted, l.completed = 10, 9
	l.fail(failServerShed, 1)
	res := abyss.Result{Offered: 10, Commits: 9, Shed: 1}
	if err := crossCheck(l, res); err != nil {
		t.Fatalf("agreeing client and server rejected: %v", err)
	}
	res.Shed = 2
	if err := crossCheck(l, res); err == nil {
		t.Fatal("a server shed the clients never saw passed")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a", Start: 30, End: 50, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "c", Start: 12, End: 20, Parent: 1},
		{Name: "open", Start: 0, End: -1, Parent: -1},
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	// root: 100 − union{[10,50), [90,100)} = 100 − 50.
	want := map[string][2]float64{"root": {100, 50}, "a": {50, 42}, "b": {30, 30}, "c": {8, 8}}
	for name, w := range want {
		l := got[name]
		if math.Abs(l.Total*1e6-w[0]) > 1e-9 || math.Abs(l.Self*1e6-w[1]) > 1e-9 {
			t.Errorf("%s: total %vns self %vns, want %v %v", name, l.Total*1e6, l.Self*1e6, w[0], w[1])
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	called := false
	tr.do("y", -1, func(int) { called = true })
	if id != -1 || !called {
		t.Fatal("nil tracer must run the call and record nothing")
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 5000, 1e9)
	b := poissonSchedule(7, 5000, 1e9)
	c := poissonSchedule(8, 5000, 1e9)
	if len(a) < 4500 || len(a) > 5500 {
		t.Fatalf("%d arrivals in 1s at 5000/s", len(a))
	}
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) == len(c) && a[len(a)/2] == c[len(c)/2] {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestCheckPinsRejectsWrongPin(t *testing.T) {
	got := map[string]simPin{}
	for _, n := range simPointNames {
		got[n] = simPin{Commits: 10, Aborts: 1, Breakdown: map[string]uint64{"useful": 5}}
	}
	if err := checkPins(got, got, got); err != nil {
		t.Fatalf("matching pins rejected: %v", err)
	}
	wrong := map[string]simPin{"ycsb-w-occ": {Commits: 10, Aborts: 1, Breakdown: map[string]uint64{"useful": 6}}}
	if err := checkPins(got, wrong, nil); err == nil {
		t.Fatal("a wrong pinned breakdown passed")
	}
	rerun := map[string]simPin{"tpcc-4wh-no_wait": {Commits: 11, Aborts: 1, Breakdown: map[string]uint64{"useful": 5}}}
	if err := checkPins(got, nil, rerun); err == nil {
		t.Fatal("a diverging re-run passed")
	}
}

func TestPinsParse(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for seed, pts := range pins {
		for _, n := range simPointNames {
			if _, ok := pts[n]; !ok {
				t.Errorf("seed %s: no pin for %s", seed, n)
			}
		}
	}
}

func TestCompareDumpsRejectsDivergence(t *testing.T) {
	live := "t 1\nrow a\nrow b\n"
	if err := compareDumps(live, live); err != nil {
		t.Fatal(err)
	}
	err := compareDumps(live, "t 1\nrow a\nrow c\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("diverging dump: %v", err)
	}
	if err := compareDumps(live, live[:len(live)-2]); err == nil {
		t.Fatal("a truncated dump passed")
	}
}

func TestBudgetCheck(t *testing.T) {
	res := abyss.Result{PerTxn: []abyss.TxnStats{{Name: "Payment", Commits: 90, Aborts: 5}, {Name: "NewOrder", Commits: 99, Aborts: 2}}}
	if err := budgetCheck(res, 100, "Payment"); err != nil {
		t.Fatal(err)
	}
	if err := budgetCheck(res, 100, "Payment", "NewOrder"); err == nil {
		t.Fatal("101 attempts fit a budget of 100")
	}
	if err := budgetCheck(res, 100, "Delivery"); err == nil {
		t.Fatal("a missing transaction type passed")
	}
}

func TestTatpKey(t *testing.T) {
	if got := tatpKey("GetNewDestination"); got != "get_new_destination" {
		t.Fatal(got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, decl []struct{ Name, Unit string }) {
		if len(defs) != len(decl) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
		}
		for i := 0; i < len(defs) && i < len(decl); i++ {
			if defs[i].name != decl[i].Name || defs[i].unit != decl[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, defs[i], decl[i])
			}
		}
	}
	compare("end_to_end", endToEnd, b.EndToEnd)
	compare("per_layer", perLayer(), b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestClosedLoopLimit(t *testing.T) {
	res := closedLoop(4, time.Minute, 100, func(int) string { return "" })
	if res.ledger.attempted != 100 || res.ledger.completed != 100 {
		t.Fatalf("limit 100: %s", res.ledger)
	}
	res = closedLoop(2, 10*time.Millisecond, 0, func(c int) string {
		if c == 0 {
			return failServerShed
		}
		return ""
	})
	if err := res.ledger.check(); err != nil || res.ledger.failed[failServerShed] == 0 {
		t.Fatalf("unlimited loop: %s, %v", res.ledger, err)
	}
}
