// Package l2 provides the MAC learning table shared by the L2 switch data
// planes (VALE, VPP's learning bridge, OvS's NORMAL action).
package l2

import (
	"repro/internal/flowtab"
	"repro/internal/pkt"
	"repro/internal/units"
)

// MACTable is a bounded source-learning table with aging. It is an
// open-addressed linear-probe table (backward-shift deletion, no
// tombstones) sized to at most half load, so the per-frame Learn/Lookup
// pair the L2 planes issue costs two short probe scans and no map-header
// or hash-interface overhead. Eviction picks the globally oldest entry
// with a deterministic tie-break (lowest slot index), unlike the previous
// map-based table whose ties followed Go's randomized map iteration.
//
// The oldest entry is found through a min-heap of live slots ordered by
// (filed, slot), where filed[s] is a lower bound on seen[s]. A Learn hit
// only raises seen (filed moves only if time ran backwards), so the
// per-frame path stays O(1); eviction re-files a stale top at its real
// time until the top's filed time is current, and that top is then the
// minimum (seen, slot) over the whole table — the same victim a full scan
// picks. Backward-shift moves carry each entry's heap position along. The
// heap is built at the first eviction, so a table that never fills (most
// of them) never allocates or maintains it.
type MACTable struct {
	hashes []uint64
	macs   []pkt.MAC
	ports  []int32
	seen   []units.Time
	live   []bool
	mask   uint64
	n      int
	cap    int
	ttl    units.Time

	filed   []units.Time // per slot: heap key, filed[s] <= seen[s]
	heap    []int32      // live slots, min-heap on (filed, slot)
	heapPos []int32      // per slot: index in heap; nil until built

	// Learns, Hits, Misses, Evictions count table activity.
	Learns, Hits, Misses, Evictions int64
}

// NewMACTable returns a table bounded to capacity entries whose entries age
// out after ttl (0 = never).
func NewMACTable(capacity int, ttl units.Time) *MACTable {
	if capacity <= 0 {
		panic("l2: non-positive capacity")
	}
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	return &MACTable{
		hashes: make([]uint64, size),
		macs:   make([]pkt.MAC, size),
		ports:  make([]int32, size),
		seen:   make([]units.Time, size),
		live:   make([]bool, size),
		mask:   uint64(size - 1),
		cap:    capacity,
		ttl:    ttl,
	}
}

func macHash(mac pkt.MAC) uint64 {
	v := uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	return flowtab.HashUint64(v)
}

// Learn records that mac was seen as a source on port at time now.
func (t *MACTable) Learn(mac pkt.MAC, port int, now units.Time) {
	if mac.IsMulticast() {
		return // source multicast is never learned
	}
	h := macHash(mac)
	i := h & t.mask
	for t.live[i] {
		if t.hashes[i] == h && t.macs[i] == mac {
			t.ports[i] = int32(port)
			t.seen[i] = now
			if t.heapPos != nil && now < t.filed[i] {
				t.filed[i] = now
				t.up(int(t.heapPos[i]))
			}
			return
		}
		i = (i + 1) & t.mask
	}
	if t.n >= t.cap {
		t.evictOldest()
		// The backward shift may have moved entries across the free
		// slot we found; re-probe.
		i = h & t.mask
		for t.live[i] {
			i = (i + 1) & t.mask
		}
	}
	t.Learns++
	t.live[i] = true
	t.hashes[i] = h
	t.macs[i] = mac
	t.ports[i] = int32(port)
	t.seen[i] = now
	if t.heapPos != nil {
		t.filed[i] = now
		t.heapPos[i] = int32(len(t.heap))
		t.heap = append(t.heap, int32(i))
		t.up(len(t.heap) - 1)
	}
	t.n++
}

// evictOldest deletes the entry with the smallest (seen, slot).
func (t *MACTable) evictOldest() {
	if t.heapPos == nil {
		t.buildHeap()
	}
	for {
		s := t.heap[0]
		if t.filed[s] == t.seen[s] {
			t.deleteSlot(uint64(s))
			t.Evictions++
			return
		}
		t.filed[s] = t.seen[s] // refreshed since filing: re-file
		t.down(0)
	}
}

// buildHeap files every live entry at its seen time.
func (t *MACTable) buildHeap() {
	t.filed = make([]units.Time, len(t.live))
	t.heapPos = make([]int32, len(t.live))
	t.heap = make([]int32, 0, t.cap)
	for s, l := range t.live {
		if l {
			t.filed[s] = t.seen[s]
			t.heapPos[s] = int32(len(t.heap))
			t.heap = append(t.heap, int32(s))
		}
	}
	for k := len(t.heap)/2 - 1; k >= 0; k-- {
		t.down(k)
	}
}

// deleteSlot empties slot i and backward-shifts any displaced entries in
// its probe chain so future probes never cross a hole.
func (t *MACTable) deleteSlot(i uint64) {
	t.n--
	heaped := t.heapPos != nil
	if heaped {
		k := int(t.heapPos[i])
		last := len(t.heap) - 1
		if k != last {
			t.swap(k, last)
		}
		t.heap = t.heap[:last]
		if k != last {
			t.fix(k)
		}
	}
	for {
		t.live[i] = false
		j := i
		for {
			j = (j + 1) & t.mask
			if !t.live[j] {
				return
			}
			h := t.hashes[j] & t.mask
			// Slot j may fill the hole at i only if its home slot h is
			// not cyclically inside (i, j] — otherwise moving it would
			// break its own probe chain.
			var blocked bool
			if i <= j {
				blocked = h > i && h <= j
			} else {
				blocked = h > i || h <= j
			}
			if !blocked {
				break
			}
		}
		t.live[i] = true
		t.hashes[i] = t.hashes[j]
		t.macs[i] = t.macs[j]
		t.ports[i] = t.ports[j]
		t.seen[i] = t.seen[j]
		if heaped {
			t.filed[i] = t.filed[j]
			k := t.heapPos[j]
			t.heapPos[i] = k
			t.heap[k] = int32(i)
			t.fix(int(k)) // the slot is part of the key
		}
		i = j
	}
}

// less orders heap positions a and b by (filed, slot).
func (t *MACTable) less(a, b int) bool {
	sa, sb := t.heap[a], t.heap[b]
	return t.filed[sa] < t.filed[sb] || (t.filed[sa] == t.filed[sb] && sa < sb)
}

func (t *MACTable) swap(a, b int) {
	t.heap[a], t.heap[b] = t.heap[b], t.heap[a]
	t.heapPos[t.heap[a]] = int32(a)
	t.heapPos[t.heap[b]] = int32(b)
}

func (t *MACTable) up(k int) {
	for k > 0 {
		p := (k - 1) / 2
		if !t.less(k, p) {
			return
		}
		t.swap(k, p)
		k = p
	}
}

// down sifts position k towards the leaves, reporting whether it moved.
func (t *MACTable) down(k int) bool {
	start := k
	for {
		c := 2*k + 1
		if c >= len(t.heap) {
			break
		}
		if r := c + 1; r < len(t.heap) && t.less(r, c) {
			c = r
		}
		if !t.less(c, k) {
			break
		}
		t.swap(k, c)
		k = c
	}
	return k != start
}

// fix restores heap order after position k's key changed either way.
func (t *MACTable) fix(k int) {
	if !t.down(k) {
		t.up(k)
	}
}

// Lookup returns the port mac was learned on, or ok=false for a miss
// (unknown, aged out, or broadcast/multicast — which must flood).
func (t *MACTable) Lookup(mac pkt.MAC, now units.Time) (port int, ok bool) {
	if mac.IsMulticast() {
		t.Misses++
		return 0, false
	}
	h := macHash(mac)
	i := h & t.mask
	for t.live[i] {
		if t.hashes[i] == h && t.macs[i] == mac {
			if t.ttl > 0 && now-t.seen[i] > t.ttl {
				t.deleteSlot(i)
				t.Misses++
				return 0, false
			}
			t.Hits++
			return int(t.ports[i]), true
		}
		i = (i + 1) & t.mask
	}
	t.Misses++
	return 0, false
}

// Len returns the number of live entries.
func (t *MACTable) Len() int { return t.n }
