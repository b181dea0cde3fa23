package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// hot-read: two replicated in-memory engines taking alternate operations;
// writes route to the shard owner through a recommend.Router and followers
// tail the owners through a recommend.Replicator. Nothing touches disk, so
// CF neighbour scoring is nearly the whole of a read.
var hotReadSpec = workloadSpec{
	name:      "hot-read",
	readTail:  0.90,
	writeTail: 0.90,
	open:      openHotRead,
}

type hotRead struct {
	cm      *community
	ops     *stream
	engines []*recommend.Engine
	routers []*recommend.Router
	repls   []*recommend.Replicator
	l       *layers
	checks  int
	log     io.Writer
}

func openHotRead(cfg runConfig, l *layers) (world, error) {
	cm, err := newCommunity(cfg, cfg.size.users)
	if err != nil {
		return nil, err
	}
	ops, err := newStream(cm.u, workload.TrafficConfig{Seed: cfg.seed, HotCategoryShare: 0.8},
		map[workload.OpKind]uint64{workload.OpRecommend: 17, workload.OpRecordPurchase: 2, workload.OpSetProfile: 1})
	if err != nil {
		return nil, err
	}
	const servers = 2
	w := &hotRead{cm: cm, ops: ops, l: l, checks: cfg.size.checks, log: cfg.log}
	writers := make([]recommend.Writer, servers)
	peers := make([]recommend.Peer, servers)
	for i := 0; i < servers; i++ {
		e, err := recommend.Open(cm.u.Catalog, recommend.WithNeighbors(refK), recommend.WithTolerance(refTolerance),
			recommend.WithJournalFeed(0))
		if err != nil {
			w.close()
			return nil, err
		}
		w.engines = append(w.engines, e)
		writers[i], peers[i] = e, recommend.LocalPeer{Engine: e}
		if l != nil {
			// A Router writes its own shards straight into its local
			// engine, so the wrapper times the writes routed to the other
			// owner: about half of them.
			writers[i], peers[i] = timedWriter{e, l}, timedPeer{peers[i], l}
		}
	}
	for i, e := range w.engines {
		r, err := recommend.NewRouter(e, i, writers)
		if err != nil {
			w.close()
			return nil, err
		}
		w.routers = append(w.routers, r)
		repl, err := recommend.NewReplicator(e, i, peers)
		if err != nil {
			w.close()
			return nil, err
		}
		repl.Start()
		w.repls = append(w.repls, repl)
	}
	if err := cm.seed(w.engines[0], w.routers[0]); err != nil {
		w.close()
		return nil, err
	}
	if err := w.drain(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// do runs operation i on server i mod 2, so both servers serve reads and
// route writes.
func (w *hotRead) round() int { return w.ops.round() }

func (w *hotRead) do(i uint64, rec *recorder) error {
	op, s := w.ops.Op(i), int(i%uint64(len(w.engines)))
	owner := w.engines[recommend.OwnerOf(w.engines[s].ShardOf(op.UserID), len(w.engines))]
	_, err := w.cm.apply(w.engines[s], owner, w.routers[s], op, w.l, rec)
	return err
}

func (w *hotRead) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, r := range w.repls {
		if err := r.Sync(ctx); err != nil {
			return err
		}
	}
	return nil
}

// check drains replication and requires both servers to hold the same
// community. Then, for a sample of reads, it checks each server's CF
// neighbours against the brute-force reference and every list each server
// serves, and requires both servers to answer identically — unless their
// neighbour lists differ, which the reference check has just shown can
// only be a gate-boundary pair falling differently on the two replicas.
func (w *hotRead) check() error {
	if err := w.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	a, b := w.engines[0].Snapshot(), w.engines[1].Snapshot()
	users := a.Users()
	if !slices.Equal(users, b.Users()) {
		return fmt.Errorf("replicas hold %d and %d consumers", len(users), len(b.Users()))
	}
	profiles := make([]*profile.Profile, len(users))
	for i, id := range users {
		profiles[i] = a.Profile(id)
		if !maps.Equal(profiles[i].Vector(), b.Profile(id).Vector()) || !maps.Equal(a.Purchases(id), b.Purchases(id)) {
			return fmt.Errorf("replicas disagree on consumer %s", id)
		}
	}
	ref := newRefProfiles(profiles)
	reads := sampleReads(w.checks, w.ops.Op)
	for _, e := range w.engines {
		if err := checkReadLists(e, reads); err != nil {
			return err
		}
	}
	flips := 0
	for _, op := range reads {
		want, err := referenceNeighbors(ref, op.UserID, op.Category, refTolerance)
		if err != nil {
			return err
		}
		var ids [2][]string
		var recs [2][]recommend.Rec
		for i, e := range w.engines {
			got, err := e.Neighbors(op.UserID, op.Category, recommend.SearchExact)
			if err != nil {
				return err
			}
			if err := checkNeighbors(got, want, refK); err != nil {
				return fmt.Errorf("server %d: CF neighbours of %s in %s: %w", i, op.UserID, op.Category, err)
			}
			ids[i] = neighborIDs(got)
			if recs[i], err = e.Recommend(recommend.StrategyAuto, op.UserID, op.Category, op.TopN); err != nil {
				return err
			}
		}
		if !slices.Equal(ids[0], ids[1]) {
			flips++
			continue
		}
		if err := sameRecs(recs[0], recs[1]); err != nil {
			return fmt.Errorf("replicas disagree on %s in %s: %w", op.UserID, op.Category, err)
		}
	}
	if flips > 0 {
		fmt.Fprintf(w.log, "perfbench: hot-read: on %d of %d sampled reads a gate-boundary neighbour fell differently on the two replicas\n", flips, len(reads))
	}
	return nil
}

func (w *hotRead) counters() counters {
	var c counters
	for _, r := range w.repls {
		for _, sh := range r.Stats().Shards {
			c.replRecords += sh.Records
		}
	}
	return c
}

func (w *hotRead) close() error {
	var errs []error
	for _, r := range w.repls {
		errs = append(errs, r.Close())
	}
	for _, e := range w.engines {
		errs = append(errs, e.Close())
	}
	return errors.Join(errs...)
}
