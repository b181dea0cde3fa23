package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// agent-session: the paper's user-visible path. One op is one consumer
// session on a platform of two marketplaces and one Buyer Agent Server:
// register (first visit) and log in, a query task whose Mobile Buyer Agent
// tours both marketplaces, a buy task for the top recommendation at list
// price, and log out. Agent hops, agent-state JSON, marketplace search and
// the Profile Agent's writes carry the load.
var agentSessionSpec = workloadSpec{
	name:      "agent-session",
	readTail:  0.98,
	writeTail: 0.90,
	open:      openAgentSession,
}

type agentSession struct {
	cm  *community
	p   *platform.Platform
	srv *buyerserver.Server
	ops *stream
	l   *layers

	registered map[string]bool
	bought     map[string][]string // consumer -> products bought
	buys       int
	err        error // first output check that failed
}

func openAgentSession(cfg runConfig, l *layers) (world, error) {
	cm, err := newCommunity(cfg, cfg.size.users)
	if err != nil {
		return nil, err
	}
	for _, p := range cm.u.Products {
		p.Stock = 1 << 30 // no buy may run out
	}
	pcfg := platform.Config{Marketplaces: 2, BuyerServers: 1, Products: cm.u.Products,
		EngineOpts: []recommend.Option{recommend.WithNeighbors(refK), recommend.WithTolerance(refTolerance)}}
	var tw *timedWriter
	if l != nil {
		// The engine exists only once platform.New returns; the writer is
		// bound to it before any consumer can write.
		tw = &timedWriter{l: l}
		pcfg.BuyerOpts = []buyerserver.Option{buyerserver.WithCommunityWriter(communityWriter{tw, l})}
	}
	p, err := platform.New(pcfg)
	if err != nil {
		return nil, err
	}
	if tw != nil {
		tw.Writer = p.Engine
	}
	w := &agentSession{cm: cm, p: p, srv: p.Buyer(), l: l,
		registered: make(map[string]bool), bought: make(map[string][]string)}
	if err := p.SeedCommunity(cm.profiles, cm.purchases); err != nil {
		p.Close()
		return nil, err
	}
	// Consumers are drawn uniformly, so nearly every session is a
	// consumer's first: with Zipf draws the share of returning consumers,
	// whose grown profiles change what a read costs, varied from seed to
	// seed and dominated the spread.
	if w.ops, err = newStream(cm.u, workload.TrafficConfig{Seed: cfg.seed, HotCategoryShare: 0.8},
		map[workload.OpKind]uint64{workload.OpRecommend: 20}); err != nil {
		p.Close()
		return nil, err
	}
	return w, nil
}

func (w *agentSession) round() int { return w.ops.round() }

func (w *agentSession) do(i uint64, rec *recorder) error {
	op := w.ops.Op(i)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	user := op.UserID
	if !w.registered[user] {
		if err := w.srv.Register(ctx, user); err != nil {
			return fmt.Errorf("register %s: %w", user, err)
		}
		w.registered[user] = true
	}
	start := cpuNow()
	if _, err := w.srv.Login(ctx, user); err != nil {
		return fmt.Errorf("login %s: %w", user, err)
	}
	if w.l != nil {
		w.l.login.since(start)
		w.l.sessions.Add(1)
	}

	start = cpuNow()
	q, err := w.srv.Query(ctx, user, catalog.Query{Category: op.Category})
	if err != nil {
		return fmt.Errorf("query %s: %w", user, err)
	}
	rec.read(start)
	if w.l != nil {
		// The BRA's cross-sell read, repeated outside the agents so its
		// layers can be timed.
		if err := w.l.tracedRead(w.srv.Engine(), user, op.Category); err != nil {
			return fmt.Errorf("traced read %s: %w", user, err)
		}
	}
	top, price, err := w.checkQuery(q, op.Category)
	if err != nil {
		w.fail(fmt.Errorf("query by %s in %s: %w", user, op.Category, err))
	}

	if top != "" {
		start = cpuNow()
		b, err := w.srv.Buy(ctx, user, top, price, false)
		if err != nil {
			return fmt.Errorf("buy %s by %s: %w", top, user, err)
		}
		rec.write(start)
		if s := b.Sale; s == nil || s.ProductID != top || s.PriceCents > price {
			w.fail(fmt.Errorf("buy of %s by %s within %d cents yielded sale %+v", top, user, price, s))
		} else {
			w.buys++
			w.bought[user] = append(w.bought[user], top)
		}
	}

	start = cpuNow()
	if err := w.srv.Logout(ctx, user); err != nil {
		return fmt.Errorf("logout %s: %w", user, err)
	}
	if w.l != nil {
		w.l.logout.since(start)
	}
	return nil
}

// checkQuery requires every match to lie in the queried category and every
// recommendation to be drawn from the matches, and returns the top
// recommendation with its list price.
func (w *agentSession) checkQuery(q buyerserver.TaskResult, category string) (string, int64, error) {
	matched := make(map[string]*catalog.Product)
	for _, m := range q.AllMatches() {
		if m.Product.Category != category {
			return "", 0, fmt.Errorf("match %s is in %s", m.Product.ID, m.Product.Category)
		}
		matched[m.Product.ID] = m.Product
	}
	for _, r := range q.Recommendations {
		if matched[r.ProductID] == nil {
			return "", 0, fmt.Errorf("recommendation %s is not among the %d matches", r.ProductID, len(matched))
		}
	}
	if len(q.Recommendations) == 0 {
		return "", 0, fmt.Errorf("no recommendations from %d matches", len(matched))
	}
	top := q.Recommendations[0].ProductID
	return top, matched[top].PriceCents, nil
}

func (w *agentSession) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// check requires the marketplaces' sales to equal the buys and every
// consumer's engine purchases to include what they bought.
func (w *agentSession) check() error {
	errs := []error{w.err}
	snap := w.p.Engine.Snapshot()
	for user, pids := range w.bought {
		owned := snap.Purchases(user)
		for _, pid := range pids {
			if !owned[pid] {
				errs = append(errs, fmt.Errorf("%s bought %s but the engine does not record it", user, pid))
			}
		}
	}
	sales := 0
	for _, m := range w.p.Markets {
		sales += len(m.Sales())
	}
	if sales != w.buys {
		errs = append(errs, fmt.Errorf("marketplaces logged %d sales for %d buys", sales, w.buys))
	}
	return errors.Join(errs...)
}

func (w *agentSession) counters() counters {
	d, _, b := w.p.Loopback.Stats()
	return counters{dispatches: d, bytesMoved: b}
}

func (w *agentSession) close() error { return w.p.Close() }
