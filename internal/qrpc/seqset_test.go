package qrpc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkSeqSet compares a seqSet with its map reference: same length, same
// membership over probe, same ascending iteration, and ranges that are
// sorted, disjoint and never adjacent (adjacent ranges must have merged).
func checkSeqSet(t *testing.T, s *seqSet, ref map[uint64]bool, probe uint64) {
	t.Helper()
	if s.len() != len(ref) {
		t.Fatalf("len = %d, want %d (ranges %v)", s.len(), len(ref), s.ranges)
	}
	for seq := uint64(0); seq <= probe; seq++ {
		if s.has(seq) != ref[seq] {
			t.Fatalf("has(%d) = %v, want %v (ranges %v)", seq, s.has(seq), ref[seq], s.ranges)
		}
	}
	want := make([]uint64, 0, len(ref))
	for seq := range ref {
		want = append(want, seq)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := s.appendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("appendTo = %v, want %v", got, want)
	}
	for i, r := range s.ranges {
		if r.lo > r.hi || (i > 0 && s.ranges[i-1].hi+1 >= r.lo) {
			t.Fatalf("ranges not sorted, disjoint and merged: %v", s.ranges)
		}
	}
}

func TestSeqSetTable(t *testing.T) {
	type op struct {
		prune bool
		seq   uint64
	}
	add := func(seqs ...uint64) []op {
		ops := make([]op, len(seqs))
		for i, seq := range seqs {
			ops[i] = op{seq: seq}
		}
		return ops
	}
	prune := func(floor uint64) op { return op{prune: true, seq: floor} }
	cases := []struct {
		name       string
		ops        []op
		wantRanges int
	}{
		{"empty", nil, 0},
		{"contiguous in order", add(1, 2, 3, 4, 5), 1},
		{"contiguous reversed", add(5, 4, 3, 2, 1), 1},
		{"gap then fill merges both sides", add(1, 2, 4, 5, 3), 1},
		{"disjoint", add(1, 3, 5, 7), 4},
		{"duplicate adds", add(2, 2, 3, 3, 2), 1},
		{"overlap re-add inside range", add(1, 2, 3, 4, 2, 3), 1},
		{"insert before first", add(10, 11, 5), 2},
		{"insert between", add(1, 9, 5), 3},
		{"extend left", add(10, 9), 1},
		{"prune inside range", append(add(1, 2, 3, 4, 5, 6), prune(4)), 1},
		{"prune at range start", append(add(3, 4, 5), prune(3)), 1},
		{"prune between ranges", append(add(1, 2, 6, 7), prune(4)), 1},
		{"prune past everything", append(add(1, 2, 6, 7), prune(100)), 0},
		{"prune splits then re-add below", append(append(add(1, 2, 3, 4), prune(3)), add(1)...), 2},
		{"prune then fill gap", append(append(add(1, 2, 4, 5, 6), prune(5)), add(4)...), 1},
		{"zero seq", add(0, 1, 2), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s seqSet
			ref := map[uint64]bool{}
			for _, o := range tc.ops {
				if o.prune {
					s.pruneBelow(o.seq)
					for seq := range ref {
						if seq < o.seq {
							delete(ref, seq)
						}
					}
				} else {
					s.add(o.seq)
					ref[o.seq] = true
				}
				checkSeqSet(t, &s, ref, 20)
			}
			if len(s.ranges) != tc.wantRanges {
				t.Fatalf("ranges = %v, want %d of them", s.ranges, tc.wantRanges)
			}
		})
	}
}

// TestSeqSetMatchesMapReference drives random add/prune sequences over a
// small seq space, so merges, splits and prunes inside ranges all occur,
// and checks the set against a map[uint64]bool after every step.
func TestSeqSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var s seqSet
		ref := map[uint64]bool{}
		const space = 48
		for step := 0; step < 120; step++ {
			if rng.Intn(10) == 0 {
				floor := uint64(rng.Intn(space / 2))
				s.pruneBelow(floor)
				for seq := range ref {
					if seq < floor {
						delete(ref, seq)
					}
				}
			} else {
				seq := uint64(rng.Intn(space))
				s.add(seq)
				ref[seq] = true
			}
			checkSeqSet(t, &s, ref, space)
		}
	}
}

// TestSeqSetContiguousAcksStayCompact is the memory property the session's
// acked set exists for: acks arriving roughly in order collapse into one
// range however many there are.
func TestSeqSetContiguousAcksStayCompact(t *testing.T) {
	var s seqSet
	for base := uint64(1); base <= 100000; base += 4 {
		// Out of order inside each window of four, as pipelined replies ack.
		for _, d := range []uint64{1, 0, 3, 2} {
			s.add(base + d)
		}
	}
	if s.len() != 100000 || len(s.ranges) != 1 {
		t.Fatalf("len = %d, ranges = %d, want 100000 seqs in 1 range", s.len(), len(s.ranges))
	}
}
