package main

import (
	"testing"

	"agentrec/internal/workload"
)

// TestStreamRounds checks that every round holds exactly the declared
// number of each kind, and that the operations of each kind are the
// Traffic's own, in its order.
func TestStreamRounds(t *testing.T) {
	u, err := workload.Generate(workload.Config{Seed: 1, Users: 200, Products: 60, Categories: 4})
	if err != nil {
		t.Fatal(err)
	}
	mix := map[workload.OpKind]uint64{workload.OpRecommend: 10, workload.OpSetProfile: 8, workload.OpRecordPurchase: 2}
	cfg := workload.TrafficConfig{Seed: 9, ChurnFraction: 0.6}
	s, err := newStream(u, cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if s.round() != 20 {
		t.Fatalf("round of %d ops, want 20", s.round())
	}
	cfg.MixRecommend, cfg.MixSetProfile, cfg.MixPurchase = 10, 8, 2
	traffic, err := workload.NewTraffic(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKind := make(map[workload.OpKind][]workload.Op)
	for i := uint64(0); i < 5000; i++ {
		op := traffic.Op(i)
		byKind[op.Kind] = append(byKind[op.Kind], op)
	}

	const rounds = 40
	seen := make(map[workload.OpKind]int)
	for r := 0; r < rounds; r++ {
		counts := make(map[workload.OpKind]uint64)
		for k := 0; k < s.round(); k++ {
			i := uint64(r*s.round() + k)
			op := s.Op(i)
			if op.Kind != s.slots[k] {
				t.Fatalf("op %d is a %v in a %v slot", i, op.Kind, s.slots[k])
			}
			if want := byKind[op.Kind][seen[op.Kind]]; op.UserID != want.UserID || op.ProductID != want.ProductID || op.Category != want.Category {
				t.Fatalf("op %d is %+v, want the Traffic's next %v %+v", i, op, op.Kind, want)
			}
			seen[op.Kind]++
			counts[op.Kind]++
		}
		for kind, n := range mix {
			if counts[kind] != n {
				t.Fatalf("round %d holds %d %v ops, want %d", r, counts[kind], kind, n)
			}
		}
	}
	// The stream is a pure function of the index: asking again, or out of
	// order, gives the same operations.
	again, err := newStream(u, cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(rounds * 20); i > 0; i-- {
		if a, b := again.Op(i-1), s.Op(i-1); a.UserID != b.UserID || a.Kind != b.Kind || a.ProductID != b.ProductID {
			t.Fatalf("op %d differs between two streams of the same seed", i-1)
		}
	}
}
