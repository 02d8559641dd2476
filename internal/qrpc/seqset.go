package qrpc

import "sort"

// seqSet is a set of sequence numbers stored as sorted, disjoint,
// non-adjacent inclusive ranges. A session's acked seqs arrive almost in
// order, so they collapse into a handful of ranges: contiguous acks cost
// O(1) memory instead of one map entry each. The zero value is empty.
type seqSet struct {
	ranges []seqRange
	n      int
}

type seqRange struct{ lo, hi uint64 }

// search returns the index of the first range whose hi >= seq.
func (s *seqSet) search(seq uint64) int {
	return sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].hi >= seq })
}

func (s *seqSet) has(seq uint64) bool {
	i := s.search(seq)
	return i < len(s.ranges) && s.ranges[i].lo <= seq
}

// add inserts seq, merging it into the ranges it touches.
func (s *seqSet) add(seq uint64) {
	i := s.search(seq)
	if i < len(s.ranges) && s.ranges[i].lo <= seq {
		return
	}
	s.n++
	joinsPrev := i > 0 && s.ranges[i-1].hi+1 == seq
	joinsNext := i < len(s.ranges) && s.ranges[i].lo == seq+1
	switch {
	case joinsPrev && joinsNext:
		s.ranges[i-1].hi = s.ranges[i].hi
		s.ranges = append(s.ranges[:i], s.ranges[i+1:]...)
	case joinsPrev:
		s.ranges[i-1].hi = seq
	case joinsNext:
		s.ranges[i].lo = seq
	default:
		s.ranges = append(s.ranges, seqRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = seqRange{seq, seq}
	}
}

func (s *seqSet) len() int { return s.n }

// pruneBelow drops every seq below floor.
func (s *seqSet) pruneBelow(floor uint64) {
	i := s.search(floor)
	for _, r := range s.ranges[:i] {
		s.n -= int(r.hi - r.lo + 1)
	}
	s.ranges = append(s.ranges[:0], s.ranges[i:]...)
	if len(s.ranges) > 0 && s.ranges[0].lo < floor {
		s.n -= int(floor - s.ranges[0].lo)
		s.ranges[0].lo = floor
	}
}

// appendTo appends the set's seqs to dst in ascending order.
func (s *seqSet) appendTo(dst []uint64) []uint64 {
	for _, r := range s.ranges {
		for seq := r.lo; ; seq++ {
			dst = append(dst, seq)
			if seq == r.hi {
				break
			}
		}
	}
	return dst
}
