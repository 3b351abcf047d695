// Package faultinject provides deterministic, seed-driven fault injection
// for chaos testing the engine's resilience layer. Production code calls
// the package-level hooks (Fire, Sleep, Corrupt) at named injection
// points; by default no injector is active and every hook collapses to a
// single atomic pointer load returning immediately, so the points cost
// nothing in normal operation.
//
// Chaos tests activate an Injector with per-point rules:
//
//	defer faultinject.Activate(faultinject.New(42).
//		Set(faultinject.WorkerPanic, faultinject.Rule{After: 3, Limit: 1}),
//	)()
//
// Rules are counter- or probability-based; both are deterministic for a
// given seed and trigger sequence, so a failing chaos run reproduces.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site.
type Point uint8

// Injection points wired into the engine.
const (
	// WorkerPanic makes a parallel scan worker panic mid-scan. The
	// engine must recover it into an error, drop the skipper, and
	// still answer the query correctly.
	WorkerPanic Point = iota
	// ScanDelay sleeps at a scan checkpoint, simulating a slow scan so
	// deadline and cancellation handling can be tested deterministically.
	ScanDelay
	// CodecCorrupt flips one byte of a snapshot payload as it is
	// written, so loads see a checksum mismatch and must stay
	// failure-atomic.
	CodecCorrupt
	// InvariantFlip corrupts an adaptive zonemap's zone layout during
	// feedback, violating the tiling invariant. The next probe must
	// detect it, decline soundly, and let the engine drop the skipper.
	InvariantFlip
	// WALSyncErr makes a WAL fsync report an injected I/O error. The log
	// must fail the waiting commits and go sticky-failed, never ack.
	WALSyncErr
	// CrashWALBeforeWrite SIGKILLs the process before a group-commit
	// batch reaches the segment file: nothing of the batch survives.
	CrashWALBeforeWrite
	// CrashWALTornWrite writes only a prefix of the batch, syncs it, then
	// SIGKILLs: recovery must truncate the torn tail.
	CrashWALTornWrite
	// CrashWALAfterWrite SIGKILLs after the batch is written but before
	// fsync: the bytes may or may not survive; either way no ack was sent.
	CrashWALAfterWrite
	// CrashWALAfterSync SIGKILLs after fsync but before waiters are
	// notified: the records are durable yet unacknowledged.
	CrashWALAfterSync
	// CrashWALAfterApply SIGKILLs after a logged batch was applied to
	// the in-memory table but (typically) before its fsync completed.
	CrashWALAfterApply
	numPoints
)

// String names the point.
func (p Point) String() string {
	switch p {
	case WorkerPanic:
		return "worker-panic"
	case ScanDelay:
		return "scan-delay"
	case CodecCorrupt:
		return "codec-corrupt"
	case InvariantFlip:
		return "invariant-flip"
	case WALSyncErr:
		return "wal-sync-err"
	case CrashWALBeforeWrite:
		return "wal-crash-before-write"
	case CrashWALTornWrite:
		return "wal-crash-torn-write"
	case CrashWALAfterWrite:
		return "wal-crash-after-write"
	case CrashWALAfterSync:
		return "wal-crash-after-sync"
	case CrashWALAfterApply:
		return "wal-crash-after-apply"
	default:
		return fmt.Sprintf("Point(%d)", uint8(p))
	}
}

// ParsePoint resolves a point by its String name, for CLI flags like
// adskip-server's -fault-crash.
func ParsePoint(name string) (Point, error) {
	for p := Point(0); p < numPoints; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown point %q", name)
}

// Points lists every point name, for CLI usage strings.
func Points() []string {
	out := make([]string, numPoints)
	for p := Point(0); p < numPoints; p++ {
		out[p] = p.String()
	}
	return out
}

// Rule decides when a point fires. The zero Rule fires on every trigger.
type Rule struct {
	// After skips the first After triggers.
	After int
	// Every fires on every Every-th trigger past After (default 1).
	Every int
	// Limit stops firing after Limit fires (0 = unlimited).
	Limit int
	// Prob, when > 0, replaces the Every schedule with a seeded
	// Bernoulli draw per trigger (still deterministic per seed).
	Prob float64
	// Delay is how long ScanDelay sleeps when it fires.
	Delay time.Duration
}

// ruleState tracks one point's trigger history.
type ruleState struct {
	rule     Rule
	triggers int
	fires    int
}

// Injector is a configured set of injection rules. Points without a rule
// never fire.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules [numPoints]*ruleState
}

// New returns an injector whose probability draws derive from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Set installs a rule for point p, returning the injector for chaining.
func (in *Injector) Set(p Point, r Rule) *Injector {
	if r.Every <= 0 {
		r.Every = 1
	}
	in.mu.Lock()
	in.rules[p] = &ruleState{rule: r}
	in.mu.Unlock()
	return in
}

// fire decides whether point p fires on this trigger.
func (in *Injector) fire(p Point) (bool, Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.rules[p]
	if st == nil {
		return false, Rule{}
	}
	st.triggers++
	if st.rule.Limit > 0 && st.fires >= st.rule.Limit {
		return false, st.rule
	}
	if st.triggers <= st.rule.After {
		return false, st.rule
	}
	if st.rule.Prob > 0 {
		if in.rng.Float64() >= st.rule.Prob {
			return false, st.rule
		}
	} else if (st.triggers-st.rule.After-1)%st.rule.Every != 0 {
		return false, st.rule
	}
	st.fires++
	return true, st.rule
}

// Fires reports how many times point p has fired on this injector.
func (in *Injector) Fires(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.rules[p]; st != nil {
		return st.fires
	}
	return 0
}

// active is the globally installed injector; nil means all hooks no-op.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns a restore
// function (usually deferred) that removes it. Chaos tests that share a
// process must not overlap activations.
func Activate(in *Injector) func() {
	active.Store(in)
	return func() { active.CompareAndSwap(in, nil) }
}

// Enabled reports whether any injector is active. Hot paths may use it to
// skip trigger bookkeeping entirely.
func Enabled() bool { return active.Load() != nil }

// Fire reports whether point p should inject a fault now. It is safe for
// concurrent use and costs one atomic load when no injector is active.
func Fire(p Point) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	fired, _ := in.fire(p)
	return fired
}

// Sleep blocks for the point's configured delay when p fires (ScanDelay).
func Sleep(p Point) {
	in := active.Load()
	if in == nil {
		return
	}
	if fired, rule := in.fire(p); fired && rule.Delay > 0 {
		time.Sleep(rule.Delay)
	}
}

// Corrupt flips one deterministic byte of b when p fires, returning
// whether it did. The flipped offset depends only on the payload length,
// so a given corruption reproduces.
func Corrupt(p Point, b []byte) bool {
	in := active.Load()
	if in == nil || len(b) == 0 {
		return false
	}
	fired, _ := in.fire(p)
	if !fired {
		return false
	}
	b[len(b)/2] ^= 0x40
	return true
}

// PanicValue is the value injected worker panics carry, so recovery paths
// can assert provenance in tests.
const PanicValue = "faultinject: injected panic"

// ErrInjected is the error injected I/O failures (WALSyncErr) surface, so
// tests can assert provenance with errors.Is.
var ErrInjected = errors.New("faultinject: injected error")

// Crash SIGKILLs the process when point p fires — the hard kill the
// crash-torture suite drives: no deferred functions, no flushes, exactly
// what a kernel OOM kill or power cut looks like to the WAL. It returns
// normally when the point does not fire.
func Crash(p Point) {
	in := active.Load()
	if in == nil {
		return
	}
	if fired, _ := in.fire(p); fired {
		Kill()
	}
}

// Kill SIGKILLs the current process immediately. Split from Crash so
// sites that need work between the fire decision and the kill (torn
// writes) can sequence it themselves.
func Kill() {
	proc, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = proc.Kill() // SIGKILL on unix: not catchable, not graceful
	}
	select {} // never resume past a kill, even if signal delivery lags
}
