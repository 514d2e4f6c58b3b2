package l2

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/units"
)

// TestMACTableMatchesReference drives the open-addressed table and the
// map-based reference with identical randomized Learn/Lookup sequences —
// including capacity evictions and TTL aging — and asserts identical
// results and counters at every step. Timestamps strictly increase so
// every eviction victim is unique (the only regime where the reference's
// randomized tie-break is deterministic).
//
// Every case also runs a twin table whose evictions are made by the full
// linear scan the heap replaced (lowest slot among the oldest entries);
// the twin must hold the same entries in the same slots after every step.
// The burst cases advance the clock only every few operations, so many
// entries share a timestamp and eviction depends on the slot tie-break;
// they are checked against the twin alone, as is the case whose clock
// sometimes steps back (a Learn then lowers an entry's seen time).
func TestMACTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct {
		name  string
		cap   int
		ttl   units.Time
		macs  int
		ops   int
		burst int  // operations per clock tick; 1 = strictly increasing
		back  bool // ticks may also move the clock back
	}{
		{"small-evicting", 8, 0, 64, 4000, 1, false},
		{"aging", 32, 50 * units.Microsecond, 48, 4000, 1, false},
		{"large-no-evict", 1024, 0, 256, 4000, 1, false},
		{"equal-timestamp-bursts", 16, 0, 96, 20000, 32, false},
		{"equal-timestamp-bursts-large", 1024, 0, 4096, 10000, 256, false},
		{"equal-timestamp-bursts-aging", 32, 30 * units.Microsecond, 128, 20000, 8, false},
		{"clock-steps-back", 16, 0, 64, 20000, 2, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			got := NewMACTable(cfg.cap, cfg.ttl)
			want := newReferenceMACTable(cfg.cap, cfg.ttl)
			scan := NewMACTable(cfg.cap, cfg.ttl)
			exact := cfg.burst == 1 && !cfg.back // reference ties are unique
			now := units.Time(0)
			for i := 0; i < cfg.ops; i++ {
				if i%cfg.burst == 0 {
					now += units.Time(1 + rng.Intn(int(10*units.Microsecond)))
					if cfg.back && rng.Intn(4) == 0 {
						now -= units.Time(rng.Intn(int(20 * units.Microsecond)))
					}
				}
				id := rng.Intn(cfg.macs)
				m := pkt.MAC{2, 0, 0, 0, byte(id >> 8), byte(id)}
				if rng.Intn(100) < 2 {
					m[0] |= 1 // occasional multicast source/dst
				}
				if rng.Intn(2) == 0 {
					port := rng.Intn(16)
					got.Learn(m, port, now)
					want.Learn(m, port, now)
					scanLearn(scan, m, port, now)
				} else {
					gp, gok := got.Lookup(m, now)
					wp, wok := want.Lookup(m, now)
					sp, sok := scan.Lookup(m, now)
					if gp != sp || gok != sok {
						t.Fatalf("op %d: Lookup(%v) = (%d,%v), linear scan (%d,%v)", i, m, gp, gok, sp, sok)
					}
					if exact && (gp != wp || gok != wok) {
						t.Fatalf("op %d: Lookup(%v) = (%d,%v), reference (%d,%v)", i, m, gp, gok, wp, wok)
					}
				}
				if err := sameSlots(got, scan); err != "" {
					t.Fatalf("op %d: diverged from the linear scan: %s", i, err)
				}
				if exact && got.Len() != want.Len() {
					t.Fatalf("op %d: Len = %d, reference %d", i, got.Len(), want.Len())
				}
			}
			if got.Evictions != scan.Evictions || got.Learns != scan.Learns {
				t.Fatalf("counters diverged from the linear scan: evictions %d vs %d, learns %d vs %d",
					got.Evictions, scan.Evictions, got.Learns, scan.Learns)
			}
			if !exact {
				if got.Evictions == 0 {
					t.Fatal("case never evicted")
				}
				return
			}
			if got.Learns != want.Learns || got.Hits != want.Hits ||
				got.Misses != want.Misses || got.Evictions != want.Evictions {
				t.Fatalf("counters diverged: got {L:%d H:%d M:%d E:%d}, reference {L:%d H:%d M:%d E:%d}",
					got.Learns, got.Hits, got.Misses, got.Evictions,
					want.Learns, want.Hits, want.Misses, want.Evictions)
			}
		})
	}
}

// scanLearn is Learn with eviction by the full linear scan over the slots
// — the oldest seen time, lowest slot on ties — as MACTable did before
// its eviction heap. It frees the victim first, so the table's own
// eviction never runs.
func scanLearn(t *MACTable, mac pkt.MAC, port int, now units.Time) {
	if !mac.IsMulticast() && t.n >= t.cap && !t.has(mac) {
		oldest := -1
		oldestAt := units.Time(1<<63 - 1)
		for i, l := range t.live {
			if l && t.seen[i] < oldestAt {
				oldest, oldestAt = i, t.seen[i]
			}
		}
		t.deleteSlot(uint64(oldest))
		t.Evictions++
	}
	t.Learn(mac, port, now)
}

// has reports whether mac is in the table, aged or not, without the
// counter and aging side effects of Lookup.
func (t *MACTable) has(mac pkt.MAC) bool {
	h := macHash(mac)
	for i := h & t.mask; t.live[i]; i = (i + 1) & t.mask {
		if t.hashes[i] == h && t.macs[i] == mac {
			return true
		}
	}
	return false
}

// sameSlots compares two tables slot by slot.
func sameSlots(a, b *MACTable) string {
	if a.n != b.n {
		return fmt.Sprintf("Len %d vs %d", a.n, b.n)
	}
	for i := range a.live {
		if a.live[i] != b.live[i] || a.live[i] &&
			(a.macs[i] != b.macs[i] || a.ports[i] != b.ports[i] || a.seen[i] != b.seen[i]) {
			return fmt.Sprintf("slot %d: %v %v %d %d vs %v %v %d %d", i,
				a.live[i], a.macs[i], a.ports[i], a.seen[i], b.live[i], b.macs[i], b.ports[i], b.seen[i])
		}
	}
	return ""
}
