package health

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/obs"
)

// Monitor evaluates a set of Objectives against the adaptation timeline.
// It owns no goroutine: OnSample is meant to run inside an
// obs.Sampler.Subscribe callback, once per tick, and everything else
// (Status, Snapshot, Alerts) is a read. The monitor's clock is the
// sample timestamp, never the wall clock, so tests drive it with
// synthetic ticks and get deterministic transitions.
type Monitor struct {
	cfg      Config
	interval time.Duration
	bounds   []float64 // latency histogram bucket bounds
	shortT   int       // windows in ticks
	midT     int
	longT    int

	mu      sync.Mutex
	ticks   *obs.Ring[tickPoint] // capacity: the long window plus one
	objs    []*objState
	tickSeq uint64
	overall Severity
	since   time.Time

	alerts *obs.Ring[Transition]

	latScratch []int64

	// status mirrors overall for lock-free readers: the query server's
	// refuse-on-burn gate reads it per request. shedStatus is the same
	// aggregate restricted to shed-eligible objectives (signals whose
	// ShedExempt() is false) — the gate reads this one, so a metadata-
	// quality alert like skip_regression never refuses queries.
	status     atomic.Int32
	shedStatus atomic.Int32

	log *slog.Logger

	// Registry instrumentation (nil-safe: absent without a registry).
	reg         *obs.Registry
	statusGauge *obs.Gauge
	ticksTotal  *obs.Counter
	evalNanos   *obs.Counter
}

// objState is one objective's evaluation state.
type objState struct {
	obj   Objective
	bad   *obs.Ring[int8] // per-tick verdicts over the long window
	state Severity
	since time.Time
	clear int
	gauge *obs.Gauge
}

// Transition is one alert state change, retained in the bounded alert
// ring and served by /alerts.
type Transition struct {
	Time      time.Time `json:"time"`
	Objective string    `json:"objective"`
	Signal    Signal    `json:"signal"`
	From      Severity  `json:"from"`
	To        Severity  `json:"to"`
	// Value and Burn capture the short-window signal value and burn rate
	// at the moment of transition.
	Value float64 `json:"value"`
	Burn  float64 `json:"burn"`
}

// WindowStats is one objective's aggregate over one window.
type WindowStats struct {
	Window    string  `json:"window"`
	Value     float64 `json:"value"`
	Burn      float64 `json:"burn"`
	BadTicks  int     `json:"bad_ticks"`
	DataTicks int     `json:"data_ticks"`
}

// ObjectiveStatus is one objective's current state in a Snapshot.
type ObjectiveStatus struct {
	Name      string        `json:"name"`
	Signal    Signal        `json:"signal"`
	Threshold float64       `json:"threshold"`
	Budget    float64       `json:"budget"`
	State     Severity      `json:"state"`
	Since     time.Time     `json:"since"`
	Windows   []WindowStats `json:"windows"`
}

// Snapshot is the full health picture served by /health.
type Snapshot struct {
	Status     Severity          `json:"status"`
	Since      time.Time         `json:"since"`
	Ticks      uint64            `json:"ticks"`
	IntervalNS int64             `json:"interval_ns"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// AlertsSnapshot is the /alerts payload: currently firing objectives
// plus the retained transition history, oldest-first.
type AlertsSnapshot struct {
	Active  []ObjectiveStatus `json:"active"`
	History []Transition      `json:"history"`
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
}

// New builds a monitor for the given objectives over a tick stream of
// the given interval. reg and log are optional (nil disables metric
// gauges and transition logging respectively). Objectives with an
// unknown signal are rejected.
func New(objectives []Objective, interval time.Duration, cfg Config, reg *obs.Registry, log *slog.Logger) (*Monitor, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("health: no objectives")
	}
	if interval <= 0 {
		interval = obs.DefaultSampleInterval
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:      cfg,
		interval: interval,
		bounds:   obs.LatencyBuckets(),
		shortT:   windowTicks(cfg.Short, interval),
		midT:     windowTicks(cfg.Mid, interval),
		longT:    windowTicks(cfg.Long, interval),
		alerts:   obs.NewRing[Transition](cfg.AlertRingSize),
		log:      log,
		reg:      reg,
	}
	m.ticks = obs.NewRing[tickPoint](m.longT + 1)
	m.latScratch = make([]int64, len(m.bounds)+1)
	for _, o := range objectives {
		if !o.Signal.valid() {
			return nil, fmt.Errorf("health: objective %q: unknown signal %q", o.Name, o.Signal)
		}
		if o.Name == "" {
			o.Name = string(o.Signal)
		}
		if o.Budget <= 0 {
			o.Budget = DefaultBudget
		}
		os := &objState{obj: o, bad: obs.NewRing[int8](m.longT)}
		if reg != nil {
			os.gauge = reg.Gauge("adskip_objective_state",
				"Objective alert state: 0 ok, 1 warning, 2 critical.",
				obs.L("objective", o.Name))
		}
		m.objs = append(m.objs, os)
	}
	if reg != nil {
		m.statusGauge = reg.Gauge("adskip_health_status",
			"Overall health: 0 ok, 1 warning, 2 critical (503 on /health).")
		m.ticksTotal = reg.Counter("adskip_health_ticks_total",
			"Health evaluation ticks performed.")
		m.evalNanos = reg.Counter("adskip_health_eval_nanos_total",
			"Cumulative nanoseconds spent evaluating objectives.")
	}
	return m, nil
}

// windowTicks converts a window duration to whole ticks (minimum one).
func windowTicks(w, interval time.Duration) int {
	t := int((w + interval/2) / interval)
	if t < 1 {
		t = 1
	}
	return t
}

// Status returns the overall severity without locking.
func (m *Monitor) Status() Severity { return Severity(m.status.Load()) }

// ShedStatus returns the overall severity over shed-eligible objectives
// only — every objective except those on shed-exempt signals (see
// Signal.ShedExempt). This is the status the query server's
// refuse-on-critical gate should consult: a skip_regression alert means
// pruning got worse, not that the server is drowning, and shedding load
// for it would manufacture an outage out of an efficiency report.
func (m *Monitor) ShedStatus() Severity { return Severity(m.shedStatus.Load()) }

// Interval returns the tick interval the monitor was built for.
func (m *Monitor) Interval() time.Duration { return m.interval }

// OnSample ingests one timeline tick and re-evaluates every objective.
// It is the obs.Sampler.Subscribe callback: it copies what it needs from
// the sample before returning.
func (m *Monitor) OnSample(s *obs.HistorySample) {
	t0 := time.Now()
	m.mu.Lock()
	m.ticks.Push().set(s)
	m.tickSeq++
	if m.tickSeq == 1 {
		// First tick is the baseline: deltas need two points.
		m.since = s.Time
		m.mu.Unlock()
		m.noteEval(t0)
		return
	}
	overall, shed := SevOK, SevOK
	for _, os := range m.objs {
		m.evalObjective(os, s.Time)
		if os.state > overall {
			overall = os.state
		}
		if !os.obj.Signal.ShedExempt() && os.state > shed {
			shed = os.state
		}
	}
	m.shedStatus.Store(int32(shed))
	if overall != m.overall {
		m.overall = overall
		m.since = s.Time
		m.status.Store(int32(overall))
		if m.statusGauge != nil {
			m.statusGauge.Set(int64(overall))
		}
		if m.log != nil {
			m.log.Info("health status changed", "status", overall.String())
		}
	}
	m.mu.Unlock()
	m.noteEval(t0)
}

// noteEval charges the tick's evaluation cost to the registry.
func (m *Monitor) noteEval(t0 time.Time) {
	if m.ticksTotal != nil {
		m.ticksTotal.Inc()
		m.evalNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// evalObjective pushes the newest tick's verdict and runs the burn-rate
// state machine for one objective. Caller holds m.mu.
func (m *Monitor) evalObjective(os *objState, now time.Time) {
	verdict := int8(-1)
	value, ok := m.windowValue(os.obj.Signal, 1)
	if ok {
		verdict = 0
		if breaches(os.obj, value) {
			verdict = 1
		}
	}
	*os.bad.Push() = verdict

	burnS := m.burn(os, m.shortT)
	burnM := m.burn(os, m.midT)
	burnL := m.burn(os, m.longT)
	raw := SevOK
	switch {
	case burnS >= m.cfg.CritBurn && burnM >= m.cfg.CritBurn:
		raw = SevCritical
	case burnM >= m.cfg.WarnBurn && burnL >= m.cfg.WarnBurn:
		raw = SevWarning
	}

	// Escalation is immediate; de-escalation needs ClearTicks consecutive
	// ticks below the held state (hysteresis against flapping).
	next := os.state
	if raw >= os.state {
		os.clear = 0
		next = raw
	} else {
		os.clear++
		if os.clear >= m.cfg.ClearTicks {
			os.clear = 0
			next = raw
		}
	}
	if next == os.state {
		return
	}
	m.transition(os, next, now, value, burnS)
}

// transition applies a state change: alert ring, metrics, log. Caller
// holds m.mu.
func (m *Monitor) transition(os *objState, next Severity, now time.Time, value, burn float64) {
	tr := Transition{
		Time:      now,
		Objective: os.obj.Name,
		Signal:    os.obj.Signal,
		From:      os.state,
		To:        next,
		Value:     value,
		Burn:      burn,
	}
	*m.alerts.Push() = tr

	os.state = next
	os.since = now
	if os.gauge != nil {
		os.gauge.Set(int64(next))
	}
	if m.reg != nil {
		m.reg.Counter("adskip_health_transitions_total",
			"Objective alert transitions by target state.",
			obs.L("objective", os.obj.Name), obs.L("to", next.String())).Inc()
	}
	if m.log != nil {
		lvl, msg := slog.LevelInfo, "alert resolved"
		switch {
		case next == SevCritical:
			lvl, msg = slog.LevelError, "alert firing"
		case next > tr.From:
			lvl, msg = slog.LevelWarn, "alert firing"
		}
		m.log.Log(context.Background(), lvl, msg,
			"objective", os.obj.Name, "signal", string(os.obj.Signal),
			"from", tr.From.String(), "to", next.String(),
			"value", value, "burn", burn, "threshold", os.obj.Threshold)
	}
}

// breaches reports whether value violates the objective's threshold.
func breaches(o Objective, value float64) bool {
	if o.Signal.LowerIsBad() {
		return value < o.Threshold
	}
	return value > o.Threshold
}

// burn returns the objective's burn rate over the last w ticks: the
// fraction of bad ticks divided by the error budget. The denominator is
// the full window even before it has filled, so a cold monitor (or an
// idle stretch, whose no-data ticks are not bad) burns conservatively.
func (m *Monitor) burn(os *objState, w int) float64 {
	bad, _ := counts(os.bad, w)
	return float64(bad) / (float64(w) * os.obj.Budget)
}

// windowValue computes one signal aggregated over the last w ticks.
// Caller holds m.mu. ok is false when the window carries no data for the
// signal (no queries completed, no rows probed).
func (m *Monitor) windowValue(sig Signal, w int) (value float64, ok bool) {
	now, then, have := span(m.ticks, w)
	if !have {
		return 0, false
	}
	switch sig {
	case SignalLatencyP50, SignalLatencyP95:
		if len(now.buckets) != len(m.latScratch) {
			return 0, false
		}
		// A shorter (or absent) baseline histogram means those counters
		// were still zero at that tick — cumulative counts start at 0.
		var total int64
		for i := range m.latScratch {
			d := now.buckets[i]
			if i < len(then.buckets) {
				d -= then.buckets[i]
			}
			m.latScratch[i] = d
			total += d
		}
		if total <= 0 {
			return 0, false
		}
		q := 0.50
		if sig == SignalLatencyP95 {
			q = 0.95
		}
		return obs.QuantileFromBuckets(m.bounds, m.latScratch, q), true
	case SignalErrorRate:
		errs := now.errors - then.errors
		attempts := (now.queries - then.queries) + errs
		if attempts <= 0 {
			return 0, false
		}
		return float64(errs) / float64(attempts), true
	case SignalSkipRate:
		skipped := now.skipped - then.skipped
		probed := skipped + (now.scanned - then.scanned)
		if probed <= 0 {
			return 0, false
		}
		return float64(skipped) / float64(probed), true
	case SignalQueueDepth:
		// Instantaneous for the per-tick verdict; the window aggregate is
		// the maximum depth seen, which is what an operator wants to know.
		return m.windowMax(w, func(p *tickPoint) float64 { return float64(p.queue) }), true
	case SignalWALLag:
		return m.windowMax(w, func(p *tickPoint) float64 { return p.walLag }), true
	case SignalSkipRegression:
		// The stats layer already smooths the series (fast vs slow EWMA),
		// so the window aggregate is the worst gap seen.
		return m.windowMax(w, func(p *tickPoint) float64 { return p.skipReg }), true
	}
	return 0, false
}

// windowMax aggregates an instantaneous (non-cumulative) signal: the
// largest value over the last w ticks, clamped to the retained ticks less
// the baseline. w <= 1 reads the newest tick alone. Caller holds m.mu and
// has checked (via span) that two ticks exist.
func (m *Monitor) windowMax(w int, value func(*tickPoint) float64) float64 {
	if n := m.ticks.Len() - 1; w > n {
		w = n
	}
	max := value(m.ticks.At(0))
	for back := 1; back < w; back++ {
		if v := value(m.ticks.At(back)); v > max {
			max = v
		}
	}
	return max
}

// Snapshot returns the full health picture.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

func (m *Monitor) snapshotLocked() Snapshot {
	snap := Snapshot{
		Status:     m.overall,
		Since:      m.since,
		Ticks:      m.tickSeq,
		IntervalNS: int64(m.interval),
		Objectives: make([]ObjectiveStatus, 0, len(m.objs)),
	}
	for _, os := range m.objs {
		snap.Objectives = append(snap.Objectives, m.objectiveStatusLocked(os))
	}
	return snap
}

func (m *Monitor) objectiveStatusLocked(os *objState) ObjectiveStatus {
	st := ObjectiveStatus{
		Name:      os.obj.Name,
		Signal:    os.obj.Signal,
		Threshold: os.obj.Threshold,
		Budget:    os.obj.Budget,
		State:     os.state,
		Since:     os.since,
	}
	for _, w := range []struct {
		label string
		ticks int
	}{
		{m.cfg.Short.String(), m.shortT},
		{m.cfg.Mid.String(), m.midT},
		{m.cfg.Long.String(), m.longT},
	} {
		value, _ := m.windowValue(os.obj.Signal, w.ticks)
		bad, data := counts(os.bad, w.ticks)
		st.Windows = append(st.Windows, WindowStats{
			Window:    w.label,
			Value:     value,
			Burn:      m.burn(os, w.ticks),
			BadTicks:  bad,
			DataTicks: data,
		})
	}
	return st
}

// Alerts returns the currently firing objectives and the retained
// transition history, oldest-first.
func (m *Monitor) Alerts() AlertsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := AlertsSnapshot{
		Active:  []ObjectiveStatus{},
		History: m.alerts.AppendTo(make([]Transition, 0, m.alerts.Len())),
		Total:   m.alerts.Total(),
		Dropped: m.alerts.Dropped(),
	}
	for _, os := range m.objs {
		if os.state > SevOK {
			out.Active = append(out.Active, m.objectiveStatusLocked(os))
		}
	}
	return out
}
