package switchdef

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRuleKeyIdentity pins what Key compares: effective priority, the
// field mask and the constrained values — never wildcarded values.
func TestRuleKeyIdentity(t *testing.T) {
	base := Rule{Match: Match{Fields: FInPort | FL4Dst, InPort: 1, L4Dst: 80}}
	same := base
	same.Priority = DefaultRulePriority // 0 means the default
	same.Match.EthType = 0x0800         // wildcarded: ignored
	same.Match.IPSrc = [4]byte{10, 0, 0, 1}
	same.Actions = []RuleAction{{Kind: RuleDrop}}
	if base.Key() != same.Key() {
		t.Fatal("rules differing only in wildcarded values or actions got different keys")
	}
	for name, r := range map[string]Rule{
		"priority": {Priority: 7, Match: base.Match},
		"fields":   {Match: Match{Fields: FInPort, InPort: 1, L4Dst: 80}},
		"value":    {Match: Match{Fields: FInPort | FL4Dst, InPort: 1, L4Dst: 81}},
		// A constrained zero value differs from a wildcard.
		"zero-field": {Match: Match{Fields: FInPort | FL4Dst | FIPProto, InPort: 1, L4Dst: 80}},
	} {
		if r.Key() == base.Key() {
			t.Fatalf("rules differing in %s share a key", name)
		}
	}
}

// TestRuleLedgerMatchesReference drives the ledger with random
// Put/Delete sequences against a linear-scan model: install order,
// replace-in-place and Get must agree after every operation.
func TestRuleLedgerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randRule := func() Rule {
		return Rule{
			Priority: rng.Intn(3) * 100,
			Match: Match{
				Fields: FieldSet(rng.Intn(4)) * (FInPort | FEthType),
				InPort: rng.Intn(4), EthType: uint16(rng.Intn(2)),
				L4Src: uint16(rng.Intn(2)), // never constrained
			},
			Actions: []RuleAction{{Kind: RuleOutput, Port: rng.Intn(8)}},
		}
	}
	var l RuleLedger
	var ref []Rule
	find := func(r Rule) int {
		for i, x := range ref {
			if x.Key() == r.Key() {
				return i
			}
		}
		return -1
	}
	for op := 0; op < 5000; op++ {
		r := randRule()
		i := find(r)
		if rng.Intn(2) == 0 {
			if got := l.Put(r); got != (i >= 0) {
				t.Fatalf("op %d: Put replaced = %v, want %v", op, got, i >= 0)
			}
			if i >= 0 {
				ref[i] = r
			} else {
				ref = append(ref, r)
			}
		} else {
			if got := l.Delete(r); got != (i >= 0) {
				t.Fatalf("op %d: Delete found = %v, want %v", op, got, i >= 0)
			}
			if i >= 0 {
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
		if !reflect.DeepEqual(l.All(), ref) && !(len(ref) == 0 && l.Len() == 0) {
			t.Fatalf("op %d: ledger order %v, want %v", op, l.All(), ref)
		}
		probe := randRule()
		got, ok := l.Get(probe)
		if j := find(probe); ok != (j >= 0) || (ok && !reflect.DeepEqual(got, ref[j])) {
			t.Fatalf("op %d: Get = %v, %v", op, got, ok)
		}
	}
}
