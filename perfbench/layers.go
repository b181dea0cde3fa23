package main

import (
	"context"
	"sync/atomic"
	"time"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// timer accumulates the count and total CPU time (see cpu.go) of calls
// into one layer.
type timer struct {
	n, ns atomic.Int64
}

func (t *timer) since(start time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(cpuSince(start)))
}

func (t *timer) count() int64 { return t.n.Load() }

func (t *timer) meanMs() float64 {
	return ratio(float64(t.ns.Load())/float64(time.Millisecond), float64(t.n.Load()))
}

func (t *timer) reset() { t.n.Store(0); t.ns.Store(0) }

// layers holds the traced run's timers, one per layer boundary the
// benchmark's decorators and timed calls cross. The program itself is not
// instrumented: every span is taken around a call into a public function
// or inside a decorator of an interface the program accepts.
type layers struct {
	snapshot, cf, ifilter timer // recommend reads: Snapshot, RecommendWith(CF), RecommendWith(IF)
	setProfile, purchase  timer // recommend writes, through a Writer wrapping an owner engine
	loadShard, save       timer // Persister.LoadShard; SaveProfiles + SavePurchase + SaveShard
	pull                  timer // Peer.JournalTail
	usefulPulls           atomic.Int64
	login, logout         timer // buyerserver.Server.Login / Logout
	profileWrite          timer // the buyer server's community writer: SetProfile
	sessions              atomic.Int64
}

func (l *layers) reset() {
	for _, t := range []*timer{&l.snapshot, &l.cf, &l.ifilter, &l.setProfile, &l.purchase,
		&l.loadShard, &l.save, &l.pull, &l.login, &l.logout, &l.profileWrite} {
		t.reset()
	}
	l.usefulPulls.Store(0)
	l.sessions.Store(0)
}

// tracedRead issues one read as its traced parts: a snapshot, then the CF
// and IF rankings over it with no cut-off — the same work a hybrid read
// does before merging.
func (l *layers) tracedRead(e *recommend.Engine, userID, category string) error {
	start := cpuNow()
	snap := e.Snapshot()
	l.snapshot.since(start)
	start = cpuNow()
	if _, err := e.RecommendWith(snap, recommend.StrategyCF, userID, category, -1); err != nil {
		return err
	}
	l.cf.since(start)
	start = cpuNow()
	if _, err := e.RecommendWith(snap, recommend.StrategyIF, userID, category, -1); err != nil {
		return err
	}
	l.ifilter.since(start)
	return nil
}

// timedWriter times community writes into an owner engine.
type timedWriter struct {
	recommend.Writer
	l *layers
}

func (w timedWriter) SetProfile(p *profile.Profile) error {
	defer w.l.setProfile.since(cpuNow())
	return w.Writer.SetProfile(p)
}

func (w timedWriter) SetProfiles(ps []*profile.Profile) error {
	defer w.l.setProfile.since(cpuNow())
	return w.Writer.SetProfiles(ps)
}

func (w timedWriter) RecordPurchase(userID, productID string) error {
	defer w.l.purchase.since(cpuNow())
	return w.Writer.RecordPurchase(userID, productID)
}

func (w timedWriter) RecordPurchaseAt(userID, productID string, at time.Time) error {
	defer w.l.purchase.since(cpuNow())
	return w.Writer.RecordPurchaseAt(userID, productID, at)
}

// communityWriter times the profile writes a buyer server's Profile Agent
// makes through its community write surface.
type communityWriter struct {
	recommend.Writer
	l *layers
}

func (w communityWriter) SetProfile(p *profile.Profile) error {
	defer w.l.profileWrite.since(cpuNow())
	return w.Writer.SetProfile(p)
}

// timedPersister times the engine's journal writes and shard loads.
type timedPersister struct {
	recommend.Persister
	l *layers
}

func (p timedPersister) SaveProfiles(shard int, profs []*profile.Profile) error {
	defer p.l.save.since(cpuNow())
	return p.Persister.SaveProfiles(shard, profs)
}

func (p timedPersister) SavePurchase(shard int, userID, productID string, total int64) error {
	defer p.l.save.since(cpuNow())
	return p.Persister.SavePurchase(shard, userID, productID, total)
}

func (p timedPersister) SaveShard(shard int, data recommend.ShardData) error {
	defer p.l.save.since(cpuNow())
	return p.Persister.SaveShard(shard, data)
}

func (p timedPersister) LoadShard(shard int) (recommend.ShardData, error) {
	defer p.l.loadShard.since(cpuNow())
	return p.Persister.LoadShard(shard)
}

// timedPeer times a follower's journal-tail pulls and counts the useful
// ones: pulls that brought back at least one record or a snapshot.
type timedPeer struct {
	recommend.Peer
	l *layers
}

func (p timedPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (recommend.TailResult, error) {
	start := cpuNow()
	tr, err := p.Peer.JournalTail(ctx, shard, epoch, since)
	p.l.pull.since(start)
	if err == nil && (len(tr.Records) > 0 || tr.Snapshot != nil) {
		p.l.usefulPulls.Add(1)
	}
	return tr, err
}
