package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// spill-churn: one WAL-backed engine keeping 4 of its 16 shards resident,
// driven by one client through a write-heavy mix in which most profile
// writes bring in brand-new consumers. Shard fault-in and journal appends
// dominate; with one client and one engine the residency sequence depends
// on the ops alone.
var spillChurnSpec = workloadSpec{
	name:      "spill-churn",
	readTail:  0.95,
	writeTail: 0.95,
	open:      openSpillChurn,
}

const spillResident = 4

type spillChurn struct {
	cm     *community
	ops    *stream
	dir    string
	eng    *recommend.Engine
	w      recommend.Writer
	l      *layers
	checks int
	log    io.Writer

	// Acknowledged writes, for the durability check.
	profiles  map[string]*profile.Profile // last profile installed per consumer
	purchases map[string]map[string]bool
	newUsers  map[string]bool

	closed   bool
	recoverS float64
}

func openSpillChurn(cfg runConfig, l *layers) (world, error) {
	cm, err := newCommunity(cfg, cfg.size.spillUsers)
	if err != nil {
		return nil, err
	}
	ops, err := newStream(cm.u, workload.TrafficConfig{Seed: cfg.seed, ChurnFraction: 0.6},
		map[workload.OpKind]uint64{workload.OpRecommend: 10, workload.OpSetProfile: 8, workload.OpRecordPurchase: 2})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.stateDir, "spill-churn-")
	if err != nil {
		return nil, err
	}
	w := &spillChurn{
		cm: cm, ops: ops, dir: dir, l: l, checks: cfg.size.checks, log: cfg.log,
		profiles: make(map[string]*profile.Profile), purchases: make(map[string]map[string]bool),
		newUsers: make(map[string]bool),
	}
	p, err := recommend.OpenPersister(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if l != nil {
		p = timedPersister{p, l}
	}
	if w.eng, err = recommend.Open(cm.u.Catalog, append(engineOpts(), recommend.WithPersister(p))...); err != nil {
		p.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	w.w = w.eng
	if l != nil {
		w.w = timedWriter{w.eng, l}
	}
	if err := cm.seed(w.eng, w.eng); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// engineOpts is the spilling engine's configuration, shared by the run and
// by the reopen the durability check times.
func engineOpts() []recommend.Option {
	return []recommend.Option{
		recommend.WithNeighbors(refK), recommend.WithTolerance(refTolerance),
		recommend.WithMaxResidentShards(spillResident),
	}
}

func (w *spillChurn) round() int { return w.ops.round() }

func (w *spillChurn) do(i uint64, rec *recorder) error {
	op := w.ops.Op(i)
	p, err := w.cm.apply(w.eng, w.eng, w.w, op, w.l, rec)
	if err != nil {
		return err
	}
	switch {
	case p != nil:
		w.profiles[op.UserID] = p
		if op.NewUser {
			w.newUsers[op.UserID] = true
		}
	case op.Kind == workload.OpRecordPurchase:
		if w.purchases[op.UserID] == nil {
			w.purchases[op.UserID] = make(map[string]bool)
		}
		w.purchases[op.UserID][op.ProductID] = true
	}
	return nil
}

// check answers a sample of reads on the spilled engine, closes it, reopens
// it from its state directory (timing the recovery), verifies that every
// acknowledged write survived, and finally requires an all-resident reopen
// of the same journal to answer the sampled reads identically — unless the
// two engines' CF neighbours differ, which the reference check then shows
// to be a gate-boundary consumer falling differently (see hotRead.check).
func (w *spillChurn) check() error {
	reads := sampleReads(w.checks, w.ops.Op)
	spilled, err := answer(w.eng, reads)
	if err != nil {
		return err
	}
	w.closed = true
	if err := w.eng.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	start := cpuNow()
	e, err := recommend.Open(w.cm.u.Catalog, append(engineOpts(), recommend.WithPersistence(w.dir))...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.recoverS = cpuSince(start).Seconds()
	err = w.checkDurable(e)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	e, err = recommend.Open(w.cm.u.Catalog, recommend.WithNeighbors(refK), recommend.WithTolerance(refTolerance),
		recommend.WithPersistence(w.dir))
	if err != nil {
		return fmt.Errorf("all-resident reopen: %w", err)
	}
	defer e.Close()
	if err := checkReadLists(e, reads); err != nil {
		return err
	}
	resident, err := answer(e, reads)
	if err != nil {
		return err
	}
	snap := e.Snapshot()
	var profiles []*profile.Profile
	for _, id := range snap.Users() {
		profiles = append(profiles, snap.Profile(id))
	}
	ref := newRefProfiles(profiles)
	for i, op := range reads {
		if slices.Equal(neighborIDs(spilled[i].neighbors), neighborIDs(resident[i].neighbors)) {
			if err := sameRecs(spilled[i].recs, resident[i].recs); err != nil {
				return fmt.Errorf("spilled and all-resident engines disagree on %s in %s: %w", op.UserID, op.Category, err)
			}
			continue
		}
		want, err := referenceNeighbors(ref, op.UserID, op.Category, refTolerance)
		if err != nil {
			return err
		}
		for _, a := range []answered{spilled[i], resident[i]} {
			if err := checkNeighbors(a.neighbors, want, refK); err != nil {
				return fmt.Errorf("spilled and all-resident engines disagree on the CF neighbours of %s in %s: %w", op.UserID, op.Category, err)
			}
		}
		fmt.Fprintf(w.log, "perfbench: spill-churn: a gate-boundary neighbour of %s in %s fell differently after reopening\n", op.UserID, op.Category)
	}
	return nil
}

// answered is one sampled read: its CF neighbours and the list served.
type answered struct {
	neighbors []similarity.Neighbor
	recs      []recommend.Rec
}

func answer(e *recommend.Engine, reads []workload.Op) ([]answered, error) {
	out := make([]answered, len(reads))
	for i, op := range reads {
		var err error
		if out[i].neighbors, err = e.Neighbors(op.UserID, op.Category, recommend.SearchExact); err != nil {
			return nil, err
		}
		if out[i].recs, err = e.Recommend(recommend.StrategyAuto, op.UserID, op.Category, op.TopN); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func neighborIDs(ns []similarity.Neighbor) []string {
	ids := make([]string, len(ns))
	for i, n := range ns {
		ids[i] = n.UserID
	}
	return ids
}

// checkDurable requires every acknowledged profile and purchase to be
// present in the reopened engine e, and its consumer count to be the
// seeded community plus the new consumers.
func (w *spillChurn) checkDurable(e *recommend.Engine) error {
	touched := make(map[string]bool, len(w.profiles)+len(w.purchases))
	for id := range w.profiles {
		touched[id] = true
	}
	for id := range w.purchases {
		touched[id] = true
	}
	users := sortedKeys(touched)
	// Visit consumers shard by shard so the check faults each shard in once.
	sort.SliceStable(users, func(i, j int) bool { return e.ShardOf(users[i]) < e.ShardOf(users[j]) })
	for _, id := range users {
		if want := w.profiles[id]; want != nil {
			got, err := e.Profile(id)
			if err != nil {
				return fmt.Errorf("acknowledged profile of %s lost: %w", id, err)
			}
			if !maps.Equal(got.Vector(), want.Vector()) {
				return fmt.Errorf("acknowledged profile of %s differs after reopen", id)
			}
		}
		owned := e.Snapshot().Purchases(id)
		for pid := range w.purchases[id] {
			if !owned[pid] {
				return fmt.Errorf("acknowledged purchase %s of %s lost", pid, id)
			}
		}
	}
	if got, want := e.Stats().Users, len(w.cm.profiles)+len(w.newUsers); got != want {
		return fmt.Errorf("%d consumers after reopen, want %d seeded + %d new", got, len(w.cm.profiles), len(w.newUsers))
	}
	return e.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (w *spillChurn) counters() counters {
	c := counters{recoverS: w.recoverS}
	if !w.closed {
		c.journalBytes = w.eng.Stats().JournalBytes
	}
	return c
}

func (w *spillChurn) close() error {
	var err error
	if !w.closed {
		w.closed = true
		err = w.eng.Close()
	}
	return errors.Join(err, os.RemoveAll(w.dir))
}
