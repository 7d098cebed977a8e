package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. Exact
// samples, no interpolation; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads printed here match the ones computed over repeated runs. With
// fewer than two samples both quartiles are the lone sample (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary renders repeated measurements as "median [q1 .. q3] (n)".
func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g .. %.4g] (n=%d)", median(xs), q1, q3, len(xs))
}

// Failure kinds of the ledger. Every attempted operation ends completed
// or failed under exactly one kind.
const (
	failServerShed    = "server_shed"    // server window or admission queue full
	failAdmissionShed = "admission_shed" // session admission queue full (no wire)
	failDeadlined     = "deadlined"
	failRejected      = "rejected"
	failClosed        = "closed"
	failTransport     = "transport"
	failCheck         = "check" // operations of a failed correctness check
)

// ledger counts attempted, completed and failed operations.
type ledger struct {
	attempted uint64
	completed uint64
	failed    map[string]uint64
}

func newLedger() *ledger { return &ledger{failed: map[string]uint64{}} }

func (l *ledger) fail(kind string, n uint64) { l.failed[kind] += n }

func (l *ledger) failedTotal() uint64 {
	var n uint64
	for _, v := range l.failed {
		n += v
	}
	return n
}

// add folds another ledger into l.
func (l *ledger) add(o *ledger) {
	l.attempted += o.attempted
	l.completed += o.completed
	for k, v := range o.failed {
		l.failed[k] += v
	}
}

// check reports whether every attempted operation is accounted for.
func (l *ledger) check() error {
	if got := l.completed + l.failedTotal(); got != l.attempted {
		return fmt.Errorf("client ledger does not close: attempted %d != completed %d + failed %d",
			l.attempted, l.completed, l.failedTotal())
	}
	return nil
}

func (l *ledger) String() string {
	kinds := make([]string, 0, len(l.failed))
	for k, v := range l.failed {
		if v > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(kinds)
	return fmt.Sprintf("attempted=%d completed=%d failed=%d {%s}",
		l.attempted, l.completed, l.failedTotal(), strings.Join(kinds, " "))
}

// serverLedgerCheck verifies the drained server Result's admission
// accounting: every offered invocation committed, was shed or deadlined.
func serverLedgerCheck(offered, commits, shed, deadlined uint64) error {
	if commits+shed+deadlined != offered {
		return fmt.Errorf("server ledger does not close: offered %d != commits %d + shed %d + deadlined %d",
			offered, commits, shed, deadlined)
	}
	return nil
}
