package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process of
// rate requests per second over dur, drawn from seed: the same seed gives
// the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}

// callFn issues request i and returns "" when it completed, or the
// failure kind (see the ledger kinds).
type callFn func(i int) string

// openResult is one open-loop phase: exact per-request samples, not
// histogram buckets.
type openResult struct {
	ledger *ledger
	lat    []float64     // completed requests, ms from due time to completion
	late   []float64     // every request, µs the generator sent it after its due time
	cpu    time.Duration // process CPU while the phase ran
}

// openLoop offers the requests of sched at their due times, whether or not
// earlier ones answered. Request i goes to connection i%conns; with a
// positive window, a request finding its connection's window full waits
// for a slot, holding up the requests due after it, rather than being
// dropped. Latency is timed from the due time, so a stall of the
// generator, a full window or the server counts against every request it
// delays, and the wait shows in the lateness.
func openLoop(sched []time.Duration, conns, window int, call callFn) openResult {
	n := len(sched)
	lat := make([]float64, n)
	late := make([]float64, n)
	kinds := make([]string, n)
	slots := make([]chan struct{}, conns)
	for c := range slots {
		if window > 0 {
			slots[c] = make(chan struct{}, window)
		}
	}
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slot := slots[i%conns]
		if slot != nil {
			slot <- struct{}{}
		}
		late[i] = float64(time.Since(due)) / 1e3
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			kinds[i] = call(i)
			lat[i] = float64(time.Since(due)) / 1e6
			if slot != nil {
				<-slot
			}
		}(i, due)
	}
	wg.Wait()
	res := openResult{ledger: newLedger(), late: late, cpu: cpuTime() - cpu0}
	for i, k := range kinds {
		res.ledger.attempted++
		if k == "" {
			res.ledger.completed++
			res.lat = append(res.lat, lat[i])
		} else {
			res.ledger.fail(k, 1)
		}
	}
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	ledger *ledger
	wall   time.Duration
}

// goodput is completed operations per wall second.
func (r closedResult) goodput() float64 { return float64(r.ledger.completed) / r.wall.Seconds() }

// closedLoop runs clients goroutines, each issuing its next request as
// soon as the previous one answered, until dur has passed or, with a
// positive limit, limit requests were issued; the phase ends when the last
// outstanding request has answered.
func closedLoop(clients int, dur time.Duration, limit int64, call func(client int) string) closedResult {
	ledgers := make([]*ledger, clients)
	var issued atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		ledgers[c] = newLedger()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := ledgers[c]
			for time.Since(t0) < dur && (limit <= 0 || issued.Add(1) <= limit) {
				l.attempted++
				if k := call(c); k == "" {
					l.completed++
				} else {
					l.fail(k, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{ledger: newLedger(), wall: time.Since(t0)}
	for _, l := range ledgers {
		res.ledger.add(l)
	}
	return res
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// freeMemory collects garbage and returns freed pages to the OS, so the
// next set-up starts from the live heap alone. Called between phases,
// never inside a timed span.
func freeMemory() { debug.FreeOSMemory() }

// round is one light open-loop segment followed by one saturation
// segment. Runs repeat rounds and report medians across them, so a stall
// that hits one round moves one sample, not the result.
type round struct {
	light  openResult
	sat    closedResult
	traced bool
}

// roundPlan splits a run of total length into rounds of a light and a
// saturation segment; at least two rounds.
func roundPlan(total, light, sat time.Duration) int {
	n := int(total / (light + sat))
	return max(n, 2)
}

// roundSeed is the arrival-schedule seed of round i of a run seeded seed.
func roundSeed(seed int64, i int) int64 { return seed<<16 + int64(i) }

// rounds is a run's rounds, in order.
type rounds []round

func (rs rounds) ledger() *ledger {
	l := newLedger()
	for _, rd := range rs {
		l.add(rd.light.ledger)
		l.add(rd.sat.ledger)
	}
	return l
}

// endToEnd fills the latency, goodput and CPU metrics as medians over the
// untraced rounds.
func (rs rounds) endToEnd(r *run) {
	var gp, p50, p99, cpu []float64
	samples := 0
	for _, rd := range rs {
		if rd.traced {
			continue
		}
		gp = append(gp, rd.sat.goodput())
		p50 = append(p50, percentile(rd.light.lat, 0.50))
		p99 = append(p99, percentile(rd.light.lat, 0.99))
		cpu = append(cpu, float64(rd.light.cpu.Microseconds())/float64(rd.light.ledger.completed))
		samples += len(rd.light.lat)
	}
	fmt.Printf("goodput_tps per round: %s\n", summary(gp))
	fmt.Printf("lat_p50_ms per round: %s\n", summary(p50))
	fmt.Printf("lat_p99_ms per round: %s\n", summary(p99))
	fmt.Printf("cpu_us_per_op per round: %s\n", summary(cpu))
	fmt.Printf("latency samples (completed light requests, timed from due): %d over %d rounds\n", samples, len(p50))
	r.e2e["goodput_tps"] = median(gp)
	r.e2e["lat_p50_ms"] = median(p50)
	r.e2e["cpu_us_per_op"] = median(cpu)
}

// lateness pools the generator's lateness over every round.
func (rs rounds) lateness(r *run) {
	var late []float64
	for _, rd := range rs {
		late = append(late, rd.light.late...)
	}
	r.layer["load.late_p99_us"] = percentile(late, 0.99)
	r.layer["load.late_max_us"] = percentile(late, 1)
}

// overhead is the tracing overhead: how much lower the traced rounds'
// median goodput is than the untraced rounds', in percent of the traced.
func (rs rounds) overhead() float64 {
	var plain, traced []float64
	for _, rd := range rs {
		if rd.traced {
			traced = append(traced, rd.sat.goodput())
		} else {
			plain = append(plain, rd.sat.goodput())
		}
	}
	return (median(plain)/median(traced) - 1) * 100
}
