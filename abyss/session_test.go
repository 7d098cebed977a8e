package abyss_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
)

func serveYCSB(t testing.TB, cores int) (*abyss.DB, abyss.Workload, abyss.Scheme) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: cores, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows = 4096
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	return db, wl, scheme
}

// TestSessionInvokeDrain pins the Session accounting contract: every
// invocation gets exactly one reply, and the drained Result's
// Commits/Deadlined/Offered reconcile with the replies observed by the
// submitters.
func TestSessionInvokeDrain(t *testing.T) {
	db, wl, scheme := serveYCSB(t, 2)
	s, err := db.Serve(scheme, wl, abyss.ServeConfig{AbortBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	const clients, per = 4, 50
	var committed, deadlined atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inv := abyss.Invocation{}
				if i%2 == 0 {
					inv.Routed = true
					inv.Partition = c % s.Workers()
				}
				rep, err := s.Invoke(inv)
				if err != nil {
					t.Errorf("Invoke: %v", err)
					return
				}
				switch rep.Outcome {
				case abyss.OutcomeCommitted, abyss.OutcomeUserAbort:
					committed.Add(1)
				case abyss.OutcomeDeadlined:
					deadlined.Add(1)
				}
				if rep.Elapsed <= 0 {
					t.Errorf("Elapsed = %v, want > 0", rep.Elapsed)
				}
			}
		}(c)
	}
	wg.Wait()

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != committed.Load() {
		t.Fatalf("Result.Commits = %d, committed replies = %d", res.Commits, committed.Load())
	}
	if res.Deadlined != deadlined.Load() {
		t.Fatalf("Result.Deadlined = %d, deadlined replies = %d", res.Deadlined, deadlined.Load())
	}
	if res.Offered != clients*per {
		t.Fatalf("Result.Offered = %d, want %d", res.Offered, clients*per)
	}
	if res.Shed != 0 {
		t.Fatalf("Result.Shed = %d, want 0", res.Shed)
	}
	if res.QueueDepth.Count() != res.Offered {
		t.Fatalf("QueueDepth records %d admissions across both workers, want %d", res.QueueDepth.Count(), res.Offered)
	}
	if res.MeasureCycles == 0 || res.MeasureCycles >= uint64(1)<<62 {
		t.Fatalf("MeasureCycles = %d, want the actual serving span", res.MeasureCycles)
	}
	if res.Latency.Count() != res.Commits {
		t.Fatalf("latency count %d != commits %d", res.Latency.Count(), res.Commits)
	}
	if res.GoodputTPS() <= 0 {
		t.Fatalf("GoodputTPS = %g, want > 0", res.GoodputTPS())
	}

	// Drain is idempotent and the session refuses new work.
	res2, err := s.Drain()
	if err != nil || res2.MeasureCycles != res.MeasureCycles || res2.Commits != res.Commits {
		t.Fatalf("second Drain = (%+v, %v), want the first result", res2, err)
	}
	if _, err := s.Invoke(abyss.Invocation{}); !errors.Is(err, abyss.ErrSessionClosed) {
		t.Fatalf("Invoke after Drain = %v, want ErrSessionClosed", err)
	}
}

// slowTxn sleeps in its body — real wall time on the native runtime —
// and binds its sleep via ArgBinder so tests can park a worker.
type slowTxn struct {
	table *abyss.Table
	idx   *abyss.Index
	key   uint64
	sleep time.Duration
}

func (s *slowTxn) Generate(p abyss.Proc) { s.key = uint64(p.Rand().Intn(64)); s.sleep = 0 }

func (s *slowTxn) BindArgs(args []int64) error {
	if len(args) != 2 {
		return fmt.Errorf("want [key, sleepNs], got %d args", len(args))
	}
	if args[0] < 0 || args[0] >= 64 {
		return fmt.Errorf("key %d out of range", args[0])
	}
	s.key = uint64(args[0])
	s.sleep = time.Duration(args[1])
	return nil
}

func (s *slowTxn) Run(tx *abyss.TxnCtx) error {
	if s.sleep > 0 {
		time.Sleep(s.sleep)
	}
	slot, ok := tx.Lookup(s.idx, s.key)
	if !ok {
		return fmt.Errorf("key %d not found", s.key)
	}
	row, err := tx.Read(s.table, slot)
	if err != nil {
		return err
	}
	_ = row
	return nil
}

func (s *slowTxn) Partitions() []int { return nil }

// plainTxn has no ArgBinder, to pin the rejection path.
type plainTxn struct {
	table *abyss.Table
	idx   *abyss.Index
	key   uint64
}

func (t *plainTxn) Generate(p abyss.Proc) { t.key = uint64(p.Rand().Intn(64)) }

func (t *plainTxn) Run(tx *abyss.TxnCtx) error {
	slot, ok := tx.Lookup(t.idx, t.key)
	if !ok {
		return fmt.Errorf("key %d not found", t.key)
	}
	_, err := tx.Read(t.table, slot)
	return err
}

func (t *plainTxn) Partitions() []int { return nil }

// serveMix builds a two-procedure Mix ("touch", "plain") over a 64-row
// table, plus any extra procedures.
func serveMix(t *testing.T, cores int, extra ...abyss.TxnSpec) (*abyss.DB, *abyss.Mix) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: cores, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	table, err := db.CreateTable(abyss.TableSpec{
		Name:     "T",
		Cols:     []abyss.Col{{Name: "K", Width: 8}, {Name: "V", Width: 8}},
		Capacity: 64, Loaded: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", table, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		row := table.LoadRow(i)
		table.Schema.PutU64(row, 0, uint64(i))
		idx.LoadInsert(uint64(i), i)
	}
	mix, err := db.NewMix(append([]abyss.TxnSpec{
		{Name: "touch", Weight: 1, New: func(int) abyss.Txn { return &slowTxn{table: table, idx: idx} }},
		{Name: "plain", Weight: 1, New: func(int) abyss.Txn { return &plainTxn{table: table, idx: idx} }},
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db, mix
}

// TestSessionProceduresAndArgs pins the stored-procedure surface: named
// invocation, ArgBinder binding, and the rejection paths (unknown
// procedure, args on an anonymous draw, args without a binder).
func TestSessionProceduresAndArgs(t *testing.T) {
	db, mix := serveMix(t, 2)
	scheme, err := abyss.NewScheme("DL_DETECT")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Serve(scheme, mix, abyss.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	if got := s.Procedures(); len(got) != 2 || got[0] != "touch" {
		t.Fatalf("Procedures = %v", got)
	}
	rep, err := s.Invoke(abyss.Invocation{Proc: "touch", Args: []int64{5, 0}, Routed: true, Partition: 1})
	if err != nil || rep.Outcome != abyss.OutcomeCommitted {
		t.Fatalf("touch(5) = (%+v, %v), want committed", rep, err)
	}
	if _, err := s.Invoke(abyss.Invocation{Proc: "nope"}); err == nil || !strings.Contains(err.Error(), "no procedure") {
		t.Fatalf("unknown proc err = %v", err)
	}
	if _, err := s.Invoke(abyss.Invocation{Args: []int64{1}}); err == nil || !strings.Contains(err.Error(), "anonymous") {
		t.Fatalf("anonymous-with-args err = %v", err)
	}
	if _, err := s.Invoke(abyss.Invocation{Proc: "plain", Args: []int64{1, 2}}); err == nil || !strings.Contains(err.Error(), "ArgBinder") {
		t.Fatalf("no-binder err = %v", err)
	}
	if _, err := s.Invoke(abyss.Invocation{Proc: "touch", Args: []int64{999, 0}}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("bad-args err = %v", err)
	}
	if _, err := s.Invoke(abyss.Invocation{Routed: true, Partition: -1}); err == nil {
		t.Fatal("negative partition accepted")
	}
}

// TestSessionShedAndDeadline drives a session with one worker, a tiny
// queue and a parked worker: admission overflow sheds with ErrShed, and
// a queued invocation whose deadline lapses comes back OutcomeDeadlined
// without executing.
func TestSessionShedAndDeadline(t *testing.T) {
	db, mix := serveMix(t, 1)
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Serve(scheme, mix, abyss.ServeConfig{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Park the single worker for 100 ms.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Invoke(abyss.Invocation{Proc: "touch", Args: []int64{1, int64(100 * time.Millisecond)}}); err != nil {
			t.Errorf("parked invoke: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick it up

	// The queue holds one; a second concurrent submission must shed.
	type outcome struct {
		rep abyss.Reply
		err error
	}
	done := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rep, err := s.Invoke(abyss.Invocation{Proc: "touch", Args: []int64{2, 0}, Deadline: time.Nanosecond})
			done <- outcome{rep, err}
		}()
	}
	var sheds, deadlined int
	for i := 0; i < 2; i++ {
		switch o := <-done; {
		case errors.Is(o.err, abyss.ErrShed):
			sheds++
		case o.err == nil && o.rep.Outcome == abyss.OutcomeDeadlined:
			deadlined++
		default:
			t.Fatalf("unexpected outcome (%+v, %v)", o.rep, o.err)
		}
	}
	if sheds != 1 || deadlined != 1 {
		t.Fatalf("sheds = %d, deadlined = %d, want 1 and 1 (queue depth 1, 1ns deadline)", sheds, deadlined)
	}
	wg.Wait()

	s.NoteShed(3)
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1+3 {
		t.Fatalf("Result.Shed = %d, want 4 (1 admission + 3 noted)", res.Shed)
	}
	if res.Deadlined != 1 {
		t.Fatalf("Result.Deadlined = %d, want 1 (queued past its 1ns deadline)", res.Deadlined)
	}
	if c := s.Counters(); c.Offered != res.Offered || c.Shed != res.Shed {
		t.Fatalf("Counters %+v disagree with Result (offered %d, shed %d)", c, res.Offered, res.Shed)
	}
}

// TestServeValidation pins the front-door validation errors.
func TestServeValidation(t *testing.T) {
	simDB, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := abyss.DefaultWorkloadParams("ycsb")
	p.Rows = 1024
	wl, err := simDB.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := abyss.NewScheme("NO_WAIT")
	if _, err := simDB.Serve(scheme, wl, abyss.ServeConfig{}); err == nil || !strings.Contains(err.Error(), "native") {
		t.Fatalf("sim Serve err = %v, want native-runtime requirement", err)
	}

	db, wl2, scheme2 := serveYCSB(t, 1)
	if _, err := db.Serve(scheme2, wl2, abyss.ServeConfig{QueueDepth: -1}); err == nil {
		t.Fatal("negative QueueDepth accepted")
	}
	if _, err := db.Serve(scheme2, wl2, abyss.ServeConfig{RetryLimit: -1}); err == nil {
		t.Fatal("negative RetryLimit accepted")
	}
	// The DB's single measurement is still unclaimed after failed
	// validation; a session claims it and a second Serve errors.
	s, err := db.Serve(scheme2, wl2, abyss.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if _, err := db.Serve(scheme2, wl2, abyss.ServeConfig{}); err == nil || !strings.Contains(err.Error(), "already ran") {
		t.Fatalf("second Serve err = %v, want already-ran", err)
	}
}

// abortTxn always rolls back by program logic.
type abortTxn struct{}

func (abortTxn) Run(*abyss.TxnCtx) error { return abyss.ErrUserAbort }
func (abortTxn) Partitions() []int       { return nil }

// parkTxn holds its worker: it reports that it started, then waits to
// be released.
type parkTxn struct{ started, release chan struct{} }

func (p parkTxn) Run(*abyss.TxnCtx) error {
	p.started <- struct{}{}
	<-p.release
	return nil
}

func (parkTxn) Partitions() []int { return nil }

// TestSessionSubmit pins the asynchronous contract: on a nil return,
// done runs exactly once for every outcome — committed, user abort,
// deadlined, and ErrSessionClosed for an invocation still queued when
// the run ends — and on a non-nil return it never runs.
func TestSessionSubmit(t *testing.T) {
	park := parkTxn{started: make(chan struct{}, 1), release: make(chan struct{})}
	db, mix := serveMix(t, 1,
		abyss.TxnSpec{Name: "abort", Weight: 1, New: func(int) abyss.Txn { return abortTxn{} }},
		abyss.TxnSpec{Name: "park", Weight: 1, New: func(int) abyss.Txn { return park }})
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Serve(scheme, mix, abyss.ServeConfig{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	type call struct {
		n   atomic.Int32
		rep abyss.Reply
		err error
	}
	var calls []*call
	var wg sync.WaitGroup
	submit := func(inv abyss.Invocation) error {
		c := &call{}
		wg.Add(1)
		err := s.Submit(inv, func(rep abyss.Reply, err error) {
			if c.n.Add(1) == 1 {
				c.rep, c.err = rep, err
				wg.Done()
			}
		})
		if err != nil {
			wg.Done()
			c.err = err
			c.n.Add(100) // marks a refusal; done must leave it alone
		}
		calls = append(calls, c)
		return err
	}
	mustSubmit := func(inv abyss.Invocation) {
		t.Helper()
		if err := submit(inv); err != nil {
			t.Fatalf("Submit(%+v) = %v", inv, err)
		}
	}

	mustSubmit(abyss.Invocation{Proc: "touch", Args: []int64{1, 0}})
	mustSubmit(abyss.Invocation{Proc: "abort"})
	wg.Wait()

	// Park the worker; an invocation with a 1ns deadline expires in the
	// queue behind it.
	mustSubmit(abyss.Invocation{Proc: "park"})
	<-park.started
	mustSubmit(abyss.Invocation{Proc: "touch", Args: []int64{3, 0}, Deadline: time.Nanosecond})
	park.release <- struct{}{}
	wg.Wait()

	// Park it again and fill the queue; the interrupted run ends before
	// reaching the queued four, which the drain completes as closed.
	mustSubmit(abyss.Invocation{Proc: "park"})
	<-park.started
	for i := 0; i < 4; i++ {
		mustSubmit(abyss.Invocation{Proc: "plain"})
	}
	if err := submit(abyss.Invocation{Proc: "plain"}); !errors.Is(err, abyss.ErrShed) {
		t.Fatalf("Submit to a full queue = %v, want ErrShed", err)
	}
	if err := submit(abyss.Invocation{Proc: "nope"}); err == nil {
		t.Fatal("Submit of an unknown procedure succeeded")
	}
	db.Interrupt()
	park.release <- struct{}{}
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := submit(abyss.Invocation{}); !errors.Is(err, abyss.ErrSessionClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrSessionClosed", err)
	}

	want := []struct {
		outcome abyss.Outcome
		err     error
		refused bool
	}{
		{outcome: abyss.OutcomeCommitted},
		{outcome: abyss.OutcomeUserAbort},
		{outcome: abyss.OutcomeCommitted}, // parked
		{outcome: abyss.OutcomeDeadlined},
		{outcome: abyss.OutcomeCommitted}, // parked, then interrupted
		{err: abyss.ErrSessionClosed},
		{err: abyss.ErrSessionClosed},
		{err: abyss.ErrSessionClosed},
		{err: abyss.ErrSessionClosed},
		{err: abyss.ErrShed, refused: true},
		{refused: true}, // unknown procedure
		{err: abyss.ErrSessionClosed, refused: true},
	}
	if len(calls) != len(want) {
		t.Fatalf("%d calls, want %d", len(calls), len(want))
	}
	for i, w := range want {
		c := calls[i]
		switch {
		case w.refused:
			if n := c.n.Load(); n != 100 {
				t.Errorf("call %d: refused with %v, but done ran %d times", i, c.err, n-100)
			}
			if w.err != nil && !errors.Is(c.err, w.err) {
				t.Errorf("call %d: refusal %v, want %v", i, c.err, w.err)
			}
		case c.n.Load() != 1:
			t.Errorf("call %d: done ran %d times, want once", i, c.n.Load())
		case w.err != nil:
			if !errors.Is(c.err, w.err) {
				t.Errorf("call %d: done(%+v, %v), want error %v", i, c.rep, c.err, w.err)
			}
		case c.err != nil || c.rep.Outcome != w.outcome:
			t.Errorf("call %d: done(%+v, %v), want outcome %v", i, c.rep, c.err, w.outcome)
		}
	}
	if res.QueueDepth.Count() != 9 {
		t.Fatalf("QueueDepth records %d admissions, want 9", res.QueueDepth.Count())
	}
	if res.Commits != 4 || res.Deadlined != 1 || res.Shed != 1 {
		t.Fatalf("Result commits/deadlined/shed = %d/%d/%d, want 4/1/1 (user aborts count as commits)", res.Commits, res.Deadlined, res.Shed)
	}
}

// BenchmarkSessionSubmit measures one anonymous YCSB invocation through
// Session.Submit on two native workers, with every submitting goroutine
// reusing one completion callback: allocs/op is the session's own cost
// per request.
func BenchmarkSessionSubmit(b *testing.B) {
	db, wl, scheme := serveYCSB(b, 2)
	s, err := db.Serve(scheme, wl, abyss.ServeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		replies := make(chan error, 1)
		done := func(_ abyss.Reply, err error) { replies <- err }
		for pb.Next() {
			if err := s.Submit(abyss.Invocation{}, done); err != nil {
				b.Error(err)
				return
			}
			if err := <-replies; err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
}
