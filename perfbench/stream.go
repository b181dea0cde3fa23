package main

import (
	"sort"

	"agentrec/internal/workload"
)

// stream deals a Traffic's operations out in rounds of a fixed make-up:
// every round holds mix[k] operations of each kind k, each kind in the same
// slots of every round. The n-th operation of a kind is the Traffic's n-th
// operation of that kind, so the operations are still fixed by the seed,
// but every run draws the same number of reads and writes per round. With
// the kinds drawn freely, the share of reads in a run varied from seed to
// seed by several percent, and so did every throughput figure.
type stream struct {
	t     *workload.Traffic
	slots []workload.OpKind
	rank  []uint64                     // rank[s]: earlier slots of slots[s]'s kind in a round
	mix   map[workload.OpKind]uint64   // operations of each kind per round
	found map[workload.OpKind][]uint64 // Traffic indices of each kind, in order
	next  uint64                       // first Traffic index not yet looked at
}

// newStream builds the stream over a Traffic for u configured by cfg, whose
// mix weights it sets from mix.
func newStream(u *workload.Universe, cfg workload.TrafficConfig, mix map[workload.OpKind]uint64) (*stream, error) {
	cfg.MixRecommend = float64(mix[workload.OpRecommend])
	cfg.MixSetProfile = float64(mix[workload.OpSetProfile])
	cfg.MixPurchase = float64(mix[workload.OpRecordPurchase])
	t, err := workload.NewTraffic(u, cfg)
	if err != nil {
		return nil, err
	}
	s := &stream{t: t, mix: mix, found: make(map[workload.OpKind][]uint64)}
	// Spread each kind evenly over the round: its j-th slot sits at
	// (j+½)/count of the way through.
	type slot struct {
		at   float64
		kind workload.OpKind
	}
	var all []slot
	for k, n := range mix {
		for j := uint64(0); j < n; j++ {
			all = append(all, slot{(float64(j) + 0.5) / float64(n), k})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].kind < all[j].kind
	})
	seen := make(map[workload.OpKind]uint64)
	for _, sl := range all {
		s.slots = append(s.slots, sl.kind)
		s.rank = append(s.rank, seen[sl.kind])
		seen[sl.kind]++
	}
	return s, nil
}

// round is the number of operations in a round.
func (s *stream) round() int { return len(s.slots) }

// Op returns operation i of the stream.
func (s *stream) Op(i uint64) workload.Op {
	r, at := i/uint64(len(s.slots)), i%uint64(len(s.slots))
	kind := s.slots[at]
	n := r*s.mix[kind] + s.rank[at]
	for uint64(len(s.found[kind])) <= n {
		op := s.t.Op(s.next)
		s.found[op.Kind] = append(s.found[op.Kind], s.next)
		s.next++
	}
	return s.t.Op(s.found[kind][n])
}
