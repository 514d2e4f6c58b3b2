// Unified control plane: the typed rule vocabulary every reprogrammable
// switch accepts at runtime.
//
// The paper configures each switch through its native surface — OpenFlow
// rule strings for OvS, match/action table entries for t4p4s, Click
// configuration programs for FastClick, CLI patch commands for VPP — and
// the harness historically drove those surfaces directly. Programmer
// hoists them behind one OpenFlow-style Install/Revoke/Snapshot contract
// (the vocabulary BOFUSS-style softswitches standardize) over a typed Rule
// value, so controllers, fleets, and examples program every data plane the
// same way while each switch lowers rules into its own structures (and
// bumps its memo-generation counters, keeping PR 7's recorded charge
// scripts correct under churn).
package switchdef

import (
	"errors"

	"repro/internal/pkt"
)

// ErrNoRuntimeRules marks switches whose data plane cannot accept rule
// updates at runtime: VALE's learning bridge has no rule table at all,
// Snabb and BESS freeze their app/module graphs when the engine starts
// (reconfiguration restarts the engine, which is not a data-plane rule
// update). Validate and the churn campaign use it to gate cells the same
// way ErrNoMultiCore gates interrupt-mode scaling cells.
var ErrNoRuntimeRules = errors.New("switch cannot reprogram rules at runtime")

// FieldSet is the presence bitmask of a Match: which of the 12-tuple
// fields the rule constrains. An unset field is a wildcard.
type FieldSet uint16

// Match fields.
const (
	FInPort FieldSet = 1 << iota
	FEthDst
	FEthSrc
	FEthType
	FVLAN
	FIPSrc
	FIPDst
	FIPProto
	FL4Src
	FL4Dst
)

// Match is the typed 12-tuple match of a Rule (the OpenFlow 1.0 basic
// tuple the paper's switches all understand). Only fields named in Fields
// participate; everything else is wildcarded.
type Match struct {
	Fields  FieldSet
	InPort  int
	EthDst  pkt.MAC
	EthSrc  pkt.MAC
	EthType uint16
	VLAN    uint16 // VLAN ID (FVLAN set)
	IPSrc   [4]byte
	IPDst   [4]byte
	IPProto uint8
	L4Src   uint16
	L4Dst   uint16
}

// RuleActionKind enumerates what a rule does with a matching frame.
type RuleActionKind int

// Rule action kinds.
const (
	RuleOutput    RuleActionKind = iota // forward to Port
	RuleDrop                            // discard
	RuleSetEthDst                       // rewrite destination MAC, then continue
	RuleSetEthSrc                       // rewrite source MAC, then continue
)

// RuleAction is one action of a rule's action list.
type RuleAction struct {
	Kind RuleActionKind
	Port int     // RuleOutput
	MAC  pkt.MAC // RuleSetEthDst / RuleSetEthSrc
}

// DefaultRulePriority is the priority of rules that do not set one
// (OpenFlow's add-flow default).
const DefaultRulePriority = 32768

// Rule is one typed control-plane rule: a prioritized match plus an action
// list. Rules are plain values; Revoke identifies the installed rule by
// (Priority, Match) equality.
type Rule struct {
	// Priority orders overlapping rules (higher wins). 0 means
	// DefaultRulePriority.
	Priority int
	Match    Match
	Actions  []RuleAction
}

// EffectivePriority resolves the zero-value default.
func (r Rule) EffectivePriority() int {
	if r.Priority == 0 {
		return DefaultRulePriority
	}
	return r.Priority
}

// RuleKey is the identity Revoke matches on: the effective priority plus
// the match with every unconstrained field zeroed, so two rules that
// differ only in wildcarded values share a key. It is comparable and
// serves directly as a map key.
type RuleKey struct {
	Priority int
	Match    Match
}

// Key returns r's identity. Two rules with equal Key address the same
// table slot.
func (r Rule) Key() RuleKey {
	m := r.Match
	k := Match{Fields: m.Fields}
	if m.Fields&FInPort != 0 {
		k.InPort = m.InPort
	}
	if m.Fields&FEthDst != 0 {
		k.EthDst = m.EthDst
	}
	if m.Fields&FEthSrc != 0 {
		k.EthSrc = m.EthSrc
	}
	if m.Fields&FEthType != 0 {
		k.EthType = m.EthType
	}
	if m.Fields&FVLAN != 0 {
		k.VLAN = m.VLAN
	}
	if m.Fields&FIPSrc != 0 {
		k.IPSrc = m.IPSrc
	}
	if m.Fields&FIPDst != 0 {
		k.IPDst = m.IPDst
	}
	if m.Fields&FIPProto != 0 {
		k.IPProto = m.IPProto
	}
	if m.Fields&FL4Src != 0 {
		k.L4Src = m.L4Src
	}
	if m.Fields&FL4Dst != 0 {
		k.L4Dst = m.L4Dst
	}
	return RuleKey{Priority: r.EffectivePriority(), Match: k}
}

// Programmer is the runtime rule-management surface of a switch. Every
// switch implements it; switches whose data plane cannot take runtime
// updates return ErrNoRuntimeRules from Install and Revoke (and an empty
// Snapshot). Install of a rule whose Key is already present replaces it;
// Revoke of an absent rule reports an error.
type Programmer interface {
	// Install adds (or replaces) a rule in the data plane, invalidating
	// whatever derived state (flow caches, recorded charge scripts) the
	// rule change could affect.
	Install(r Rule) error
	// Revoke removes the rule with r's Key, with the same invalidation
	// obligations as Install.
	Revoke(r Rule) error
	// Snapshot returns the installed rules in install order (replacing
	// keeps the original position). The slice is a copy.
	Snapshot() []Rule
}

// CrossConnectRules is the canned bidirectional port-patch program in
// in_port vocabulary: the pair of rules OvS/VPP/FastClick-style switches
// lower CrossConnect(a, b) into.
func CrossConnectRules(a, b int) []Rule {
	return []Rule{
		{Match: Match{Fields: FInPort, InPort: a}, Actions: []RuleAction{{Kind: RuleOutput, Port: b}}},
		{Match: Match{Fields: FInPort, InPort: b}, Actions: []RuleAction{{Kind: RuleOutput, Port: a}}},
	}
}

// CrossConnectMACRules is the canned cross-connect program in destination
// MAC vocabulary: match/action switches without port-based forwarding
// (t4p4s's l2fwd program) install these entries against the testbed's
// PortMAC convention. Order matters for bit-identity with the historical
// table fill: the b-side entry first, then the a-side.
func CrossConnectMACRules(a, b int) []Rule {
	return []Rule{
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(b)}, Actions: []RuleAction{{Kind: RuleOutput, Port: b}}},
		{Match: Match{Fields: FEthDst, EthDst: PortMAC(a)}, Actions: []RuleAction{{Kind: RuleOutput, Port: a}}},
	}
}

// RuleLedger is the bookkeeping helper behind Snapshot: an ordered set of
// rules keyed by Rule.Key. Switch implementations embed one and keep it in
// sync as they lower rules into their native structures.
type RuleLedger struct {
	rules []Rule
	keys  []RuleKey // keys[i] == rules[i].Key()
	index map[RuleKey]int
}

// Put records r (replacing an existing rule with the same Key in place)
// and reports whether it replaced.
func (l *RuleLedger) Put(r Rule) bool {
	if l.index == nil {
		l.index = make(map[RuleKey]int)
	}
	k := r.Key()
	if i, ok := l.index[k]; ok {
		l.rules[i] = r
		return true
	}
	l.index[k] = len(l.rules)
	l.rules = append(l.rules, r)
	l.keys = append(l.keys, k)
	return false
}

// Get returns the recorded rule with r's Key.
func (l *RuleLedger) Get(r Rule) (Rule, bool) {
	i, ok := l.index[r.Key()]
	if !ok {
		return Rule{}, false
	}
	return l.rules[i], true
}

// Delete removes the rule with r's Key, reporting whether it was present.
func (l *RuleLedger) Delete(r Rule) bool {
	k := r.Key()
	i, ok := l.index[k]
	if !ok {
		return false
	}
	delete(l.index, k)
	l.rules = append(l.rules[:i], l.rules[i+1:]...)
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	for j := i; j < len(l.keys); j++ {
		l.index[l.keys[j]] = j
	}
	return true
}

// Len reports how many rules are recorded.
func (l *RuleLedger) Len() int { return len(l.rules) }

// Snapshot copies the recorded rules in install order.
func (l *RuleLedger) Snapshot() []Rule {
	out := make([]Rule, len(l.rules))
	copy(out, l.rules)
	return out
}

// All returns the live backing slice in install order (callers must not
// mutate it); implementations iterate it when rebuilding native state.
func (l *RuleLedger) All() []Rule { return l.rules }

// NoRuntimeRules implements Programmer for switches whose data plane
// cannot be reprogrammed at runtime; embed it to satisfy the interface.
type NoRuntimeRules struct{}

// Install implements Programmer.
func (NoRuntimeRules) Install(Rule) error { return ErrNoRuntimeRules }

// Revoke implements Programmer.
func (NoRuntimeRules) Revoke(Rule) error { return ErrNoRuntimeRules }

// Snapshot implements Programmer.
func (NoRuntimeRules) Snapshot() []Rule { return nil }
