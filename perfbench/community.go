package main

import (
	"errors"
	"fmt"
	"sort"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// The CF neighbourhood every engine is built with, set explicitly so the
// brute-force reference in reference.go uses the same values.
const (
	refK         = 10
	refTolerance = 0.5
)

// communitySeed generates every workload's community. The run's -seed
// drives the operation stream alone: which consumers have evidence in the
// hot category decides whether a CF read scans one category's posting
// list or the whole community, and with a community drawn per seed that
// changed from seed to seed and widened the spread between runs.
const communitySeed = 1

// community is a generated consumer community: the universe, its built
// profiles and its purchase history.
type community struct {
	u         *workload.Universe
	profiles  []*profile.Profile
	purchases map[string][]string
}

func newCommunity(cfg runConfig, users int) (*community, error) {
	u, err := workload.Generate(workload.Config{
		Seed: communitySeed, Users: users, Products: cfg.size.products, Categories: cfg.size.categories,
	})
	if err != nil {
		return nil, err
	}
	cm := &community{u: u, purchases: u.Purchases()}
	for _, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			return nil, err
		}
		cm.profiles = append(cm.profiles, p)
	}
	return cm, nil
}

// seed installs the community through w: profiles in one bulk install,
// then purchases grouped by shard (shard order keeps a spilling engine
// from faulting a shard in per record).
func (cm *community) seed(e *recommend.Engine, w recommend.Writer) error {
	if err := w.SetProfiles(cm.profiles); err != nil {
		return err
	}
	users := make([]string, 0, len(cm.purchases))
	for user := range cm.purchases {
		users = append(users, user)
	}
	sort.Slice(users, func(i, j int) bool {
		si, sj := e.ShardOf(users[i]), e.ShardOf(users[j])
		if si != sj {
			return si < sj
		}
		return users[i] < users[j]
	})
	for _, user := range users {
		for _, pid := range cm.purchases[user] {
			if err := w.RecordPurchase(user, pid); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply executes one recommend-level operation: reads on e, writes through
// w, timing it into rec. A set_profile op returns the profile it installed.
// With l set, reads are issued as traced reads.
func (cm *community) apply(e, owner *recommend.Engine, w recommend.Writer, op workload.Op, l *layers, rec *recorder) (*profile.Profile, error) {
	start := cpuNow()
	switch op.Kind {
	case workload.OpRecommend:
		var err error
		if l != nil {
			err = l.tracedRead(e, op.UserID, op.Category)
		} else {
			_, err = e.Recommend(recommend.StrategyAuto, op.UserID, op.Category, op.TopN)
		}
		rec.read(start)
		return nil, err
	case workload.OpSetProfile:
		// A new consumer observes with buy-strength evidence so they join
		// the CF community at once. A known consumer's profile, as the
		// owner holds it, learns one query-strength observation, as the
		// Profile Agent's update rule would: evidence accumulates. (Resetting
		// to the seeded profile instead made the Zipf head's consumers gain
		// and lose the hot category from write to write, and with it the
		// cost of most reads.)
		p, behaviour := profile.NewProfile(op.UserID), profile.BehaviourBuy
		if !op.NewUser {
			cur, err := owner.Profile(op.UserID)
			if err != nil {
				return nil, err
			}
			p, behaviour = cur, profile.BehaviourQuery
		}
		for _, pid := range op.ObserveProducts {
			prod, err := cm.u.Catalog.Get(pid)
			if err != nil {
				return nil, err
			}
			if err := p.Observe(prod.Evidence(behaviour)); err != nil {
				return nil, err
			}
		}
		err := w.SetProfile(p)
		rec.write(start)
		return p, err
	case workload.OpRecordPurchase:
		err := w.RecordPurchase(op.UserID, op.ProductID)
		rec.write(start)
		return nil, err
	default:
		return nil, fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

// sampleReads returns the first n recommend ops of the stream that next
// yields, for the output checks.
func sampleReads(n int, next func(i uint64) workload.Op) []workload.Op {
	var out []workload.Op
	for i := uint64(0); len(out) < n && i < uint64(100*n); i++ {
		if op := next(i); op.Kind == workload.OpRecommend {
			out = append(out, op)
		}
	}
	return out
}

// checkList verifies one served list: ranked by score then product id, free
// of duplicates, and — when the method excludes them — free of products
// the consumer owns.
func checkList(recs []recommend.Rec, owned map[string]bool, excludesOwned bool) error {
	seen := make(map[string]bool, len(recs))
	for i, r := range recs {
		if seen[r.ProductID] {
			return fmt.Errorf("product %s listed twice", r.ProductID)
		}
		seen[r.ProductID] = true
		if excludesOwned && owned[r.ProductID] {
			return fmt.Errorf("owned product %s recommended (%s)", r.ProductID, r.Source)
		}
		if i > 0 {
			prev := recs[i-1]
			if prev.Score < r.Score || (prev.Score == r.Score && prev.ProductID > r.ProductID) {
				return fmt.Errorf("list not ranked at %d: %s %.6g before %s %.6g", i, prev.ProductID, prev.Score, r.ProductID, r.Score)
			}
		}
	}
	return nil
}

// excludesOwned reports whether the method that produced a list excludes
// the consumer's own purchases: every personalised method does, the
// popularity fallback does not.
func excludesOwned(recs []recommend.Rec) bool {
	return len(recs) == 0 || recs[0].Source != "topseller-fallback"
}

// sameRecs reports whether two lists name the same products in the same
// order with scores within 1e-9.
func sameRecs(a, b []recommend.Rec) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ProductID != b[i].ProductID || !near(a[i].Score, b[i].Score) {
			return fmt.Errorf("position %d differs: %s %.12g vs %s %.12g", i, a[i].ProductID, a[i].Score, b[i].ProductID, b[i].Score)
		}
	}
	return nil
}

// checkReadLists recomputes the sampled reads on e and checks each list.
func checkReadLists(e *recommend.Engine, reads []workload.Op) error {
	snap := e.Snapshot()
	for _, op := range reads {
		owned := snap.Purchases(op.UserID)
		for _, s := range []recommend.Strategy{recommend.StrategyAuto, recommend.StrategyCF, recommend.StrategyIF} {
			recs, err := e.RecommendWith(snap, s, op.UserID, op.Category, op.TopN)
			if err != nil && !errors.Is(err, recommend.ErrUnknownUser) {
				return err
			}
			if err := checkList(recs, owned, excludesOwned(recs)); err != nil {
				return fmt.Errorf("%s read for %s in %s: %w", s, op.UserID, op.Category, err)
			}
		}
	}
	return nil
}
