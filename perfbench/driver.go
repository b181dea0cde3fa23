package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// size scales a workload's community. Tests run the workloads at testSize.
type size struct {
	users, products, categories int
	spillUsers                  int // community size of spill-churn, whose reads fault shards in
	setups                      int // set-ups per run; setup_s is their median
	warm                        int // warm-up ops, before the measured phase
	checks                      int // sampled reads the output checks recompute
}

var fullSize = size{users: 10000, spillUsers: 1000, products: 1200, categories: 16, setups: 3, warm: 60, checks: 12}

type runConfig struct {
	seed     uint64
	seconds  float64
	stateDir string
	log      io.Writer
	size     size
}

// workloadSpec describes one workload: the percentile its tail metrics
// report, and how to build its world.
type workloadSpec struct {
	name      string
	readTail  float64 // percentile of read_tail_ms; see README.md for how it was chosen
	writeTail float64 // percentile of write_tail_ms
	// open builds and seeds the world. l is nil for untraced runs; traced
	// runs pass the layer timers the world's decorators feed.
	open func(cfg runConfig, l *layers) (world, error)
}

var workloads = map[string]workloadSpec{
	"hot-read":      hotReadSpec,
	"spill-churn":   spillChurnSpec,
	"agent-session": agentSessionSpec,
}

// world is one workload's running system.
type world interface {
	// do runs the i-th operation, recording its latency samples in rec.
	do(i uint64, rec *recorder) error
	// round is the number of operations in a round of the stream (see
	// stream.go); a run attempts whole rounds.
	round() int
	// check verifies the outputs once load has stopped.
	check() error
	// counters reads cumulative counters; per-layer metrics are their
	// differences across the measured phase.
	counters() counters
	close() error
}

type counters struct {
	journalBytes int64   // engine write-ahead log size
	replRecords  uint64  // journal records followers applied
	dispatches   int     // agent migrations on the loopback transport
	bytesMoved   int64   // payload bytes on the loopback transport
	recoverS     float64 // reopen time, once check has reopened the engine
}

// recorder collects the latency samples of the closed-loop client. A
// sample is CPU time (see cpu.go): start is a cpuNow reading.
type recorder struct {
	reads, writes []float64 // ms
	ops, failed   int64
}

func (r *recorder) read(start time.Duration)  { r.reads = append(r.reads, msSince(start)) }
func (r *recorder) write(start time.Duration) { r.writes = append(r.writes, msSince(start)) }

func msSince(start time.Duration) float64 {
	return float64(cpuSince(start)) / float64(time.Millisecond)
}

// phase is one measured closed-loop phase.
type phase struct {
	recorder
	cpu0, cpu1 cpuSample
}

// cpuSeconds is the CPU time the process used in the phase: with the
// system on one core, the time that core spent on it.
func (p phase) cpuSeconds() float64 { return (p.cpu1.self - p.cpu0.self).Seconds() }

func (p phase) wallSeconds() float64 { return p.cpu1.wall.Sub(p.cpu0.wall).Seconds() }

// stealPct is the share of the machine's CPU time the hypervisor stole.
func (p phase) stealPct() float64 {
	return 100 * ratio(float64(p.cpu1.steal-p.cpu0.steal), float64(p.cpu1.total-p.cpu0.total))
}

// opsS is the phase's throughput: operations per second of the time the
// system ran.
func (p phase) opsS() float64 { return float64(p.ops) / p.cpuSeconds() }

// measure warms the world up, then runs whole rounds of operations in a
// closed loop until the deadline, cfg.seconds of wall-clock time, has
// passed. started runs between warm-up and the measured phase; firstRound
// runs when the first measured round is done.
func measure(cfg runConfig, w world, started, firstRound func()) (phase, error) {
	var warm recorder
	for i := 0; i < cfg.size.warm; i++ {
		if err := w.do(uint64(i), &warm); err != nil {
			return phase{}, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	// Every run enters the measured phase with the set-up's garbage
	// collected, so no run pays for it while being timed.
	runtime.GC()
	if started != nil {
		started()
	}
	ph := phase{cpu0: sampleCPU()}
	deadline := ph.cpu0.wall.Add(time.Duration(cfg.seconds * float64(time.Second)))
	i := uint64(cfg.size.warm)
	for round := 0; ; round++ {
		for k := 0; k < w.round(); k++ {
			ph.ops++
			if err := w.do(i, &ph.recorder); err != nil {
				if ph.failed < 3 {
					fmt.Fprintf(cfg.log, "perfbench: op %d: %v\n", i, err)
				}
				ph.failed++
			}
			i++
		}
		if round == 0 && firstRound != nil {
			firstRound()
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	ph.cpu1 = sampleCPU()
	return ph, nil
}

// setUp builds the world cfg.size.setups times, keeping the last, and
// reports the median set-up time in CPU seconds.
func setUp(spec workloadSpec, cfg runConfig, l *layers) (world, float64, error) {
	var times []float64
	var w world
	for k := 0; k < cfg.size.setups; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, 0, err
			}
		}
		start := cpuNow()
		var err error
		if w, err = spec.open(cfg, l); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, cpuSince(start).Seconds())
	}
	return w, median(times), nil
}

// runPlain is the untraced run: end-to-end metrics only.
func runPlain(spec workloadSpec, cfg runConfig) (result, error) {
	w, setupS, err := setUp(spec, cfg, nil)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	ph, err := measure(cfg, w, nil, nil)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := result{Correct: true, Attempted: ph.ops, Failed: ph.failed}
	checkStart := time.Now()
	if err := w.check(); err != nil {
		fmt.Fprintf(cfg.log, "perfbench: %s: check failed: %v\n", spec.name, err)
		res.Correct = false
	}
	res.Metrics = map[string]metric{
		"ops_s":         {ph.opsS(), "1/s"},
		"read_p50_ms":   {percentile(ph.reads, 0.50), "ms"},
		"read_tail_ms":  {percentile(ph.reads, spec.readTail), "ms"},
		"write_p50_ms":  {percentile(ph.writes, 0.50), "ms"},
		"write_tail_ms": {percentile(ph.writes, spec.writeTail), "ms"},
		"setup_s":       {setupS, "s"},
		"heap_live_mb":  {float64(ms.HeapAlloc) / (1 << 20), "MB"},
	}
	fmt.Fprintf(cfg.log, "perfbench: %s seed %d: set-up %.2fs, %d ops in %.2fs of CPU, %.2fs of wall clock (%.1f%% of the machine stolen), %d reads (tail p%g), %d writes (tail p%g), checks %.2fs\n",
		spec.name, cfg.seed, setupS, ph.ops, ph.cpuSeconds(), ph.wallSeconds(), ph.stealPct(),
		len(ph.reads), spec.readTail*100, len(ph.writes), spec.writeTail*100, time.Since(checkStart).Seconds())
	return res, nil
}

// runTraced measures an untraced phase and then a traced phase of the same
// operations on a freshly built world, and reports the per-layer metrics of
// the traced phase together with the tracing overhead: how much higher the
// untraced phase's ops_s was. Each phase takes half of cfg.seconds, so a
// traced run lasts about as long as an untraced one.
func runTraced(spec workloadSpec, cfg runConfig) (result, error) {
	cfg.size.setups = 1
	cfg.seconds /= 2
	w, _, err := setUp(spec, cfg, nil)
	if err != nil {
		return result{}, err
	}
	plain, err := measure(cfg, w, nil, nil)
	if err == nil {
		err = w.check()
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("untraced phase: %w", err)
	}

	l := &layers{}
	w, _, err = setUp(spec, cfg, l)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	var c0 counters
	var m0, m1 runtime.MemStats
	var firstLoads, firstSaves int64
	started := func() {
		l.reset()
		c0 = w.counters()
		runtime.ReadMemStats(&m0)
	}
	firstRound := func() { firstLoads, firstSaves = l.loadShard.count(), l.save.count() }
	ph, err := measure(cfg, w, started, firstRound)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&m1)
	c1 := w.counters()
	res := result{Correct: true, Attempted: ph.ops, Failed: ph.failed}
	if err := w.check(); err != nil {
		fmt.Fprintf(cfg.log, "perfbench: %s: check failed: %v\n", spec.name, err)
		res.Correct = false
	}
	recoverS := w.counters().recoverS
	ops := float64(ph.ops)
	res.Metrics = map[string]metric{
		"recommend.snapshot_ms":        {l.snapshot.meanMs(), "ms"},
		"recommend.cf_ms":              {l.cf.meanMs(), "ms"},
		"recommend.if_ms":              {l.ifilter.meanMs(), "ms"},
		"recommend.set_profile_ms":     {l.setProfile.meanMs(), "ms"},
		"recommend.purchase_ms":        {l.purchase.meanMs(), "ms"},
		"persist.load_shard_n":         {float64(firstLoads), "count"},
		"persist.load_shard_ms":        {l.loadShard.meanMs(), "ms"},
		"persist.loads_per_read":       {ratio(float64(l.loadShard.count()), float64(len(ph.reads))), "ratio"},
		"persist.save_n":               {float64(firstSaves), "count"},
		"persist.save_ms":              {l.save.meanMs(), "ms"},
		"persist.recover_s":            {recoverS, "s"},
		"kvstore.bytes_per_write":      {ratio(float64(c1.journalBytes-c0.journalBytes), float64(len(ph.writes))), "B"},
		"kvstore.journal_mb":           {float64(c1.journalBytes) / (1 << 20), "MB"},
		"repl.pull_n":                  {float64(l.pull.count()), "count"},
		"repl.pull_ms":                 {l.pull.meanMs(), "ms"},
		"repl.useful_pull_ratio":       {ratio(float64(l.usefulPulls.Load()), float64(l.pull.count())), "ratio"},
		"repl.records_applied":         {float64(c1.replRecords - c0.replRecords), "count"},
		"buyerserver.login_ms":         {l.login.meanMs(), "ms"},
		"buyerserver.logout_ms":        {l.logout.meanMs(), "ms"},
		"buyerserver.profile_write_ms": {l.profileWrite.meanMs(), "ms"},
		"aglet.dispatches_per_session": {ratio(float64(c1.dispatches-c0.dispatches), float64(l.sessions.Load())), "count"},
		"aglet.kb_per_session":         {ratio(float64(c1.bytesMoved-c0.bytesMoved)/1024, float64(l.sessions.Load())), "KB"},
		"runtime.alloc_kb_per_op":      {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops, "KB"},
		"runtime.gc_cycles":            {float64(m1.NumGC - m0.NumGC), "count"},
		"trace.overhead_pct":           {(plain.opsS()/ph.opsS() - 1) * 100, "%"},
	}
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
