package cache

import "glider/internal/trace"

// LRU is the least-recently-used policy: the private L1 and L2 run it
// (NewUpperLRU), and it is the baseline all of the paper's improvements are
// normalized against (the policy registry's "lru"). Policies built on LRU
// order, such as MRU, LFU, LIP, DIP and SDBP, read and write its stamps
// through Stamp, Update and InsertLRU.
//
// Every Update advances one clock shared by all sets and stamps the touched
// way with it, so a way's stamp is the time of its last touch, and Victim
// evicts the smallest stamp, the lowest way on a tie.
type LRU struct {
	ways  int
	stamp []uint64 // way w of set s at s*ways + w
	clock uint64
}

// NewLRU builds an LRU policy for the given geometry.
func NewLRU(sets, ways int) *LRU {
	l := &LRU{ways: ways, stamp: make([]uint64, sets*ways)}
	l.Reset()
	return l
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Reset implements Resetter.
func (l *LRU) Reset() {
	clear(l.stamp)
	l.clock = 0
}

// Stamp returns the time of way's last touch in set.
func (l *LRU) Stamp(set, way int) uint64 { return l.stamp[set*l.ways+way] }

// Victim evicts the least recently used line.
func (l *LRU) Victim(set int, pc, block uint64, core uint8, lines []Line) int {
	victim, oldest := 0, ^uint64(0)
	for w, s := range l.stamp[set*l.ways : (set+1)*l.ways] {
		if s < oldest {
			oldest = s
			victim = w
		}
	}
	return victim
}

// Update advances the clock and stamps the touched way with it; a bypass
// (way < 0) only advances the clock.
func (l *LRU) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	l.clock++
	if way >= 0 {
		l.stamp[set*l.ways+way] = l.clock
	}
}

// InsertLRU advances the clock and stamps way below every other line of its
// set, so a fill that is never reused is the set's next victim.
func (l *LRU) InsertLRU(set, way int) {
	l.clock++
	row := l.stamp[set*l.ways : (set+1)*l.ways]
	oldest := l.clock
	for w, s := range row {
		if w != way && s < oldest {
			oldest = s
		}
	}
	row[way] = max(oldest, 1) - 1
}
