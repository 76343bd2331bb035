// Tests for the snapshotable configuration state (State/SetState) and
// the hash-consed fragments the engine's unchanged-assignment skip
// compares.
package controlplane

import (
	"reflect"
	"testing"

	"repro/internal/sym"
)

// TestStateRoundTrip: State → SetState on a fresh config reproduces the
// original configuration — same State, same compiled environment.
func TestStateRoundTrip(t *testing.T) {
	an := analyze(t, fig5Src)
	cfg := NewConfig(an)
	for i, key := range []uint64{0xDEADBEEFF00D, 0x1122334455, 0xABCDEF} {
		up := &Update{Kind: InsertEntry, Table: "Ingress.port_table",
			Entry: exactEntry(key, "set", sym.NewBV(9, uint64(i+1)))}
		if err := cfg.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := cfg.Apply(&Update{Kind: SetDefault, Table: "Ingress.port_table",
		Default: ActionCall{Name: "set", Params: []sym.BV{sym.NewBV(9, 7)}}}); err != nil {
		t.Fatal(err)
	}

	st := cfg.State()
	fresh := NewConfig(an)
	if err := fresh.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	if !reflect.DeepEqual(st, fresh.State()) {
		t.Fatalf("state changed across the round trip:\n%+v\nvs\n%+v", st, fresh.State())
	}
	if got, want := fresh.NumEntries("Ingress.port_table"), 3; got != want {
		t.Fatalf("restored table holds %d entries, want %d", got, want)
	}
	env1, _, err := cfg.CompileEnv(an.Builder)
	if err != nil {
		t.Fatal(err)
	}
	env2, _, err := fresh.CompileEnv(an.Builder)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env1, env2) {
		t.Fatal("restored configuration compiles to a different environment")
	}
	// The sequence counter must carry over so future insertions keep
	// deterministic tie-breaking.
	next := &Update{Kind: InsertEntry, Table: "Ingress.port_table",
		Entry: exactEntry(0xF00, "noop")}
	if err := cfg.Apply(next); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Apply(next); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.State(), fresh.State()) {
		t.Fatal("post-restore insertion diverged (Seq not carried over)")
	}
}

// TestStateDeterministic: the same configuration reached through
// different update orders (where order is immaterial) yields the same
// State for the parts that are order-free, and State() twice in a row
// is identical.
func TestStateDeterministic(t *testing.T) {
	an := analyze(t, fig5Src)
	cfg := NewConfig(an)
	up := &Update{Kind: InsertEntry, Table: "Ingress.port_table",
		Entry: exactEntry(0x1, "set", sym.NewBV(9, 1))}
	if err := cfg.Apply(up); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.State(), cfg.State()) {
		t.Fatal("State is not deterministic")
	}
}

// TestSetStateRejectsInvalid: a snapshot is untrusted input; every
// schema violation must be rejected, and a failed SetState must leave
// the configuration untouched.
func TestSetStateRejectsInvalid(t *testing.T) {
	an := analyze(t, fig5Src)
	cfg := NewConfig(an)
	if err := cfg.Apply(&Update{Kind: InsertEntry, Table: "Ingress.port_table",
		Entry: exactEntry(0x42, "set", sym.NewBV(9, 3))}); err != nil {
		t.Fatal(err)
	}
	before := cfg.State()

	entry := func(key uint64, action string, params ...sym.BV) EntryState {
		return EntryState{
			Matches: []FieldMatch{{Kind: MatchExact, Value: sym.NewBV(48, key)}},
			Action:  action, Params: params, Seq: 1,
		}
	}
	cases := map[string]State{
		"unknown-table": {Tables: []TableState{{Name: "Ingress.nope"}}},
		"duplicate-table": {Tables: []TableState{
			{Name: "Ingress.port_table"}, {Name: "Ingress.port_table"}}},
		"unknown-action": {Tables: []TableState{{Name: "Ingress.port_table",
			Entries: []EntryState{entry(1, "frobnicate")}}}},
		"bad-param-width": {Tables: []TableState{{Name: "Ingress.port_table",
			Entries: []EntryState{entry(1, "set", sym.NewBV(16, 1))}}}},
		"duplicate-entry": {Tables: []TableState{{Name: "Ingress.port_table",
			Entries: []EntryState{entry(1, "noop"), entry(1, "noop")}}}},
		"unknown-default": {Defaults: []DefaultState{{Table: "Ingress.nope",
			Action: ActionCall{Name: "noop"}}}},
		"bad-default-action": {Defaults: []DefaultState{{Table: "Ingress.port_table",
			Action: ActionCall{Name: "frobnicate"}}}},
		"unknown-value-set": {ValueSets: []ValueSetState{{Name: "nope"}}},
		"unknown-register":  {Registers: []RegisterState{{Name: "nope", Fill: sym.NewBV(8, 0)}}},
	}
	for name, st := range cases {
		if err := cfg.SetState(st); err == nil {
			t.Errorf("%s: SetState accepted invalid state", name)
		}
		if !reflect.DeepEqual(cfg.State(), before) {
			t.Fatalf("%s: failed SetState mutated the configuration", name)
		}
	}
}

// TestCompiledFragmentsHashCons pins the property the engine's
// unchanged-assignment skip rests on: within one builder, compiling the
// same configuration yields a fragment whose every binding is the same
// hash-consed node, a different configuration rebinds at least one
// variable, and past the overapproximation threshold further inserts
// leave the fragment pointer-identical.
func TestCompiledFragmentsHashCons(t *testing.T) {
	an := analyze(t, fig5Src)
	cfg := NewConfig(an)
	b := an.Builder
	const table = "Ingress.port_table"
	compile := func() Env {
		t.Helper()
		env, _, err := cfg.CompileTable(b, table)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	same := func(a, b Env) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	apply := func(kind UpdateKind, key uint64) {
		t.Helper()
		if err := cfg.Apply(&Update{Kind: kind, Table: table,
			Entry: exactEntry(key, "set", sym.NewBV(9, 1))}); err != nil {
			t.Fatal(err)
		}
	}

	empty := compile()
	if !same(empty, compile()) {
		t.Fatal("recompiling an unchanged configuration rebound a variable")
	}
	apply(InsertEntry, 0x1)
	one := compile()
	if same(one, empty) {
		t.Fatal("an insert left every binding pointer-identical")
	}
	apply(DeleteEntry, 0x1)
	if !same(compile(), empty) {
		t.Fatal("reverting the insert did not restore the original nodes")
	}

	cfg.OverapproxThreshold = 2
	for key := uint64(1); key <= 3; key++ {
		apply(InsertEntry, key)
	}
	over := compile()
	if !cfg.Overapproximated(table) {
		t.Fatal("table past the threshold is not overapproximated")
	}
	apply(InsertEntry, 4)
	if !same(compile(), over) {
		t.Fatal("an insert past the threshold changed the overapproximated fragment")
	}
}
