package main

import (
	"fmt"
	"math"
	"sort"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// The reference neighbour search: a brute-force restatement of the paper's
// Fig 4.5 similarity, written here from its definition rather than calling
// the engine's scorer, so the benchmark's CF check does not copy the code
// it checks. Consumer y is a neighbour of x for category c when
//
//   - the preference-value gate keeps the pair: with T the summed term
//     weights of c in a profile, |Tx−Ty| / max(Tx, Ty) <= tolerance (two
//     zero values always pass), and
//   - the cosine of the two flattened profile vectors is positive.
//
// Neighbours rank by score, then by user id; the first k are kept.
//
// Two decisions are taken on a float sum whose order Go's map iteration
// leaves open, so the last bit of each may differ between the engine and
// the reference (and between two computations in the engine): the order
// of scores within scoreTolerance of each other, and the gate for pairs
// whose ratio lies within scoreTolerance of the tolerance. Such pairs are
// common: feedback qualities are small multiples of one another (a
// negotiation counts exactly twice a query), so preference values in an
// exact 2:1 ratio — a ratio of exactly the default tolerance — occur. The
// reference marks them, and the check lets them fall either way.

const scoreTolerance = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= scoreTolerance }

// refProfile is one consumer's flattened profile.
type refProfile struct {
	id   string
	vec  map[string]float64
	norm float64
	p    *profile.Profile
}

func newRefProfiles(ps []*profile.Profile) []refProfile {
	out := make([]refProfile, len(ps))
	for i, p := range ps {
		vec := p.Vector()
		var sq float64
		for _, w := range vec {
			sq += w * w
		}
		out[i] = refProfile{id: p.UserID, vec: vec, norm: math.Sqrt(sq), p: p}
	}
	return out
}

// preference is the Fig 4.5 preference value: the category's term weights,
// sub-category terms included, summed.
func preference(p *profile.Profile, category string) float64 {
	c := p.Categories[category]
	if c == nil {
		return 0
	}
	var t float64
	for _, w := range c.Terms {
		t += w
	}
	for _, sub := range c.Subs {
		for _, w := range sub.Terms {
			t += w
		}
	}
	return t
}

func cosine(a, b refProfile) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	var dot float64
	for term, w := range a.vec {
		dot += w * b.vec[term]
	}
	return dot / (a.norm * b.norm)
}

// refNeighbor is one consumer the reference ranks against the target.
type refNeighbor struct {
	id    string
	score float64
	// boundary marks a pair whose gate ratio lies within scoreTolerance
	// of the tolerance: the engine may keep or discard it.
	boundary bool
}

// referenceNeighbors ranks every consumer of community against target for
// category by brute force and returns every one the gate keeps or leaves
// on its boundary, best first.
func referenceNeighbors(community []refProfile, target, category string, tolerance float64) ([]refNeighbor, error) {
	var x *refProfile
	for i := range community {
		if community[i].id == target {
			x = &community[i]
		}
	}
	if x == nil {
		return nil, fmt.Errorf("reference: unknown consumer %s", target)
	}
	tx := preference(x.p, category)
	var out []refNeighbor
	for _, y := range community {
		if y.id == target {
			continue
		}
		ty := preference(y.p, category)
		ratio := 0.0
		if m := math.Max(tx, ty); m > 0 {
			ratio = math.Abs(tx-ty) / m
		}
		boundary := near(ratio, tolerance)
		if ratio > tolerance && !boundary {
			continue
		}
		if s := cosine(*x, y); s > 0 {
			out = append(out, refNeighbor{id: y.id, score: s, boundary: boundary})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].id < out[j].id
	})
	return out, nil
}

// checkNeighbors checks the engine's k neighbours against the reference:
// each must be a consumer the reference ranks, with the reference's score,
// and no consumer the gate clearly keeps may be missing while scoring
// above the engine's k-th. Gate-boundary consumers and consumers scoring
// within scoreTolerance of the k-th may be in or out.
func checkNeighbors(got []similarity.Neighbor, ref []refNeighbor, k int) error {
	if len(got) > k {
		return fmt.Errorf("%d neighbours, k is %d", len(got), k)
	}
	byID := make(map[string]refNeighbor, len(ref))
	for _, r := range ref {
		byID[r.id] = r
	}
	in := make(map[string]bool, len(got))
	for i, n := range got {
		if i > 0 && (got[i-1].Score < n.Score || (got[i-1].Score == n.Score && got[i-1].UserID > n.UserID)) {
			return fmt.Errorf("neighbours not ranked at %d", i)
		}
		r, ok := byID[n.UserID]
		if !ok {
			return fmt.Errorf("neighbour %s (%.12g) is not one the reference ranks", n.UserID, n.Score)
		}
		if !near(r.score, n.Score) {
			return fmt.Errorf("neighbour %s scores %.12g, reference %.12g", n.UserID, n.Score, r.score)
		}
		in[n.UserID] = true
	}
	kth := math.Inf(-1)
	if len(got) == k && k > 0 {
		kth = got[k-1].Score
	}
	for _, r := range ref {
		if !in[r.id] && !r.boundary && r.score > kth+scoreTolerance {
			return fmt.Errorf("reference neighbour %s (%.12g) missing; the engine's k-th scores %.12g", r.id, r.score, kth)
		}
	}
	return nil
}
