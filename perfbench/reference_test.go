package main

import (
	"math"
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

func toyProfile(id string, cats map[string]map[string]float64, subs map[string]map[string]float64) *profile.Profile {
	p := profile.NewProfile(id)
	for name, terms := range cats {
		p.Categories[name] = &profile.Category{Name: name, Terms: terms}
	}
	for name, terms := range subs { // sub-categories of "cam"
		c := p.Categories["cam"]
		if c.Subs == nil {
			c.Subs = make(map[string]*profile.SubCategory)
		}
		c.Subs[name] = &profile.SubCategory{Name: name, Terms: terms}
	}
	return p
}

// The toy community, scored by hand against x for category "cam"
// (x: zoom 3, lens 4; T = 7, norm 5; tolerance 0.5):
//
//	a  zoom 3, lens 4                T 7    kept                      cos 25/25 = 1
//	b  zoom 4, lens 3                T 7    kept                      cos 24/25 = 0.96
//	c  zoom 6, lens 8                T 14   boundary (|7−14|/14 = 0.5) cos 50/50 = 1
//	d  zoom 1                        T 1    discarded (6/7 > 0.5)
//	e  tv: hd 1                      T 0    discarded (7/7 > 0.5)
//	f  lens 8; tv: hd 2              T 8    kept                      cos 32/(5·√68) ≈ 0.776
//	g  zoom 1.5; sub dslr: lens 2    T 3.5  boundary (3.5/7 = 0.5)    cos 4.5/(5·2.5) = 0.36
func toyCommunity() []refProfile {
	return newRefProfiles([]*profile.Profile{
		toyProfile("x", map[string]map[string]float64{"cam": {"zoom": 3, "lens": 4}}, nil),
		toyProfile("a", map[string]map[string]float64{"cam": {"zoom": 3, "lens": 4}}, nil),
		toyProfile("b", map[string]map[string]float64{"cam": {"zoom": 4, "lens": 3}}, nil),
		toyProfile("c", map[string]map[string]float64{"cam": {"zoom": 6, "lens": 8}}, nil),
		toyProfile("d", map[string]map[string]float64{"cam": {"zoom": 1}}, nil),
		toyProfile("e", map[string]map[string]float64{"tv": {"hd": 1}}, nil),
		toyProfile("f", map[string]map[string]float64{"cam": {"lens": 8}, "tv": {"hd": 2}}, nil),
		toyProfile("g", map[string]map[string]float64{"cam": {"zoom": 1.5}}, map[string]map[string]float64{"dslr": {"lens": 2}}),
	})
}

func TestReferenceNeighborsToyCommunity(t *testing.T) {
	want := []refNeighbor{
		{id: "a", score: 1}, {id: "c", score: 1, boundary: true}, {id: "b", score: 0.96},
		{id: "f", score: 32 / (5 * math.Sqrt(68))}, {id: "g", score: 0.36, boundary: true},
	}
	got, err := referenceNeighbors(toyCommunity(), "x", "cam", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d neighbours %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || math.Abs(got[i].score-want[i].score) > 1e-12 || got[i].boundary != want[i].boundary {
			t.Errorf("neighbour %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := referenceNeighbors(toyCommunity(), "nobody", "cam", 0.5); err == nil {
		t.Error("unknown consumer accepted")
	}
}

func nb(pairs ...any) []similarity.Neighbor {
	var out []similarity.Neighbor
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, similarity.Neighbor{UserID: pairs[i].(string), Score: pairs[i+1].(float64)})
	}
	return out
}

func TestCheckNeighbors(t *testing.T) {
	toy, err := referenceNeighbors(toyCommunity(), "x", "cam", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := 32 / (5 * math.Sqrt(68))
	// Scores within scoreTolerance of the k-th (0.4) may swap.
	tie := []refNeighbor{{id: "p", score: 0.9}, {id: "q", score: 0.5}, {id: "r", score: 0.4}, {id: "s", score: 0.4 + 1e-10}}
	cases := []struct {
		name string
		got  []similarity.Neighbor
		ref  []refNeighbor
		k    int
		ok   bool
	}{
		{"exact top 3", nb("a", 1.0, "c", 1.0, "b", 0.96), toy, 3, true},
		{"boundary consumer left out", nb("a", 1.0, "b", 0.96, "f", f), toy, 3, true},
		{"all of them", nb("a", 1.0, "c", 1.0, "b", 0.96, "f", f, "g", 0.36), toy, 10, true},
		{"last-bit score difference", nb("a", 1.0, "c", 1.0, "b", 0.96+1e-12), toy, 3, true},
		{"k-th tie, one way", nb("p", 0.9, "q", 0.5, "s", 0.4+1e-10), tie, 3, true},
		{"k-th tie, the other way", nb("p", 0.9, "q", 0.5, "r", 0.4), tie, 3, true},
		{"kept consumer missing", nb("a", 1.0, "b", 0.96), toy, 3, false},
		{"kept consumer skipped", nb("a", 1.0, "c", 1.0, "f", f), toy, 3, false},
		{"discarded consumer kept", nb("a", 1.0, "c", 1.0, "d", 0.6), toy, 3, false},
		{"wrong score", nb("a", 1.0, "c", 1.0, "b", 0.95), toy, 3, false},
		{"not ranked", nb("b", 0.96, "a", 1.0, "c", 1.0), toy, 3, false},
		{"more than k", nb("a", 1.0, "c", 1.0, "b", 0.96), toy, 2, false},
	}
	for _, tc := range cases {
		if err := checkNeighbors(tc.got, tc.ref, tc.k); (err == nil) != tc.ok {
			t.Errorf("%s: checkNeighbors = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 7, 1, 9, 3, 3, 8}, 2.5, 3, 8},
	}
	for _, tc := range cases {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
