package gpusim

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestParseTagModeRoundTrip(t *testing.T) {
	// Every TagMode.String() spelling must parse back to its mode.
	for _, m := range []TagMode{ModeNone, ModeIMT, ModeECCSteal, ModeCarveOut, ModeBoundsTable} {
		got, carve, err := ParseTagMode(m.String())
		if err != nil {
			t.Fatalf("ParseTagMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseTagMode(%q) = %v", m.String(), got)
		}
		if m == ModeCarveOut && carve.TagBits == 0 {
			t.Error("bare carve-out must carry a default geometry")
		}
	}
}

func TestParseTagModeShorthands(t *testing.T) {
	cases := map[string]struct {
		mode  TagMode
		carve CarveOut
	}{
		"carve-low":  {ModeCarveOut, CarveOutLow},
		"carve-high": {ModeCarveOut, CarveOutHigh},
		"carve-mte":  {ModeCarveOut, CarveOutARMMTE},
		"bounds":     {ModeBoundsTable, CarveOut{}},
	}
	for s, want := range cases {
		mode, carve, err := ParseTagMode(s)
		if err != nil {
			t.Fatalf("ParseTagMode(%q): %v", s, err)
		}
		if mode != want.mode || carve != want.carve {
			t.Errorf("ParseTagMode(%q) = %v/%+v, want %v/%+v", s, mode, carve, want.mode, want.carve)
		}
	}
	if _, _, err := ParseTagMode("no-such-mode"); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestTagModeNamesAllParse(t *testing.T) {
	for _, name := range TagModeNames() {
		mode, carve, err := ParseTagMode(name)
		if err != nil {
			t.Errorf("advertised name %q does not parse: %v", name, err)
		}
		// A parsed carve-out config must pass validation end to end.
		cfg := DefaultConfig()
		cfg.Mode, cfg.Carve = mode, carve
		if err := cfg.Validate(); err != nil {
			t.Errorf("%q yields an invalid config: %v", name, err)
		}
	}
}

// TestCanonicalClassifiesEveryMode walks every advertised mode spelling
// through ParseTagMode and Canonical. The table names the spelling whose
// configuration each one must simulate as; a mode added to
// TagModeNames fails here until someone classifies it.
func TestCanonicalClassifiesEveryMode(t *testing.T) {
	class := map[string]string{
		"none":         "none",
		"imt":          "none",
		"ecc-steal":    "none",
		"carve-out":    "carve-low",
		"carve-low":    "carve-low",
		"carve-high":   "carve-high",
		"carve-mte":    "carve-mte",
		"bounds-table": "bounds-table",
		"bounds":       "bounds-table",
	}
	config := func(name string) Config {
		t.Helper()
		mode, carve, err := ParseTagMode(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode, cfg.Carve = mode, carve
		cfg.SampleInterval = 20000
		return cfg
	}
	names := TagModeNames()
	if len(names) != len(class) {
		t.Errorf("TagModeNames lists %d spellings, the class table %d", len(names), len(class))
	}
	for _, name := range names {
		want, ok := class[name]
		if !ok {
			t.Errorf("mode %q is unclassified: say which configuration it simulates as", name)
			continue
		}
		cfg := config(name)
		got := cfg.Canonical()
		if !reflect.DeepEqual(got.Canonical(), got) {
			t.Errorf("%s: Canonical is not idempotent", name)
		}
		// The class representative is its own canonical form.
		if rep := config(want); !reflect.DeepEqual(got, rep) || !reflect.DeepEqual(rep.Canonical(), rep) {
			t.Errorf("%s: canonical %v/%+v, want %s's %v/%+v", name, got.Mode, got.Carve, want, rep.Mode, rep.Carve)
		}
		// Only Mode and Carve may move.
		got.Mode, got.Carve = cfg.Mode, cfg.Carve
		if !reflect.DeepEqual(got, cfg) {
			t.Errorf("%s: Canonical changed a field other than Mode and Carve", name)
		}
	}
	// A stray geometry is dropped wherever the simulator does not read it.
	stray := Config{Mode: ModeIMT, Carve: CarveOutHigh, BoundsCk: 3}.Canonical()
	if !reflect.DeepEqual(stray, Config{BoundsCk: 3}) {
		t.Errorf("imt with a stray carve-out canonicalised to %+v", stray)
	}
}

func streamTrace(n int) *FuncTrace {
	return &FuncTrace{N: n, Gen: func(i int) WarpOp {
		return WarpOp{Addrs: []uint64{uint64(i) * 32}}
	}}
}

func TestRunContextCancelled(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg, []Trace{streamTrace(200_000)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunMatchesRunContext(t *testing.T) {
	cfg := DefaultConfig()
	a, err := New(cfg, []Trace{streamTrace(5000)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, []Trace{streamTrace(5000)})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.WithoutHost(), sb.WithoutHost()) {
		t.Errorf("Run and RunContext diverge: %v vs %v", sa, sb)
	}
}

func TestCloneTraces(t *testing.T) {
	orig := &SliceTrace{Ops: []WarpOp{
		{Addrs: []uint64{0, 32}},
		{Store: true, Addrs: []uint64{64}, Compute: 3},
	}}
	cloned, err := CloneTraces([]Trace{orig, nil})
	if err != nil {
		t.Fatal(err)
	}
	if cloned[1] != nil {
		t.Error("nil (idle SM) entry must stay nil")
	}

	// Drain the original; the clone must still replay from the start.
	for {
		if _, ok := orig.Next(); !ok {
			break
		}
	}
	got := cloned[0]
	op, ok := got.Next()
	if !ok || len(op.Addrs) != 2 || op.Addrs[0] != 0 {
		t.Fatalf("clone op0 = %+v ok=%v", op, ok)
	}
	// Mutating the clone's addresses must not alias the original.
	op.Addrs[0] = 999
	if orig.Ops[0].Addrs[0] != 0 {
		t.Error("clone aliases the original's address slice")
	}
	op2, ok := got.Next()
	if !ok || !op2.Store || op2.Compute != 3 {
		t.Fatalf("clone op1 = %+v", op2)
	}

	// A started trace clones rewound.
	half := &SliceTrace{Ops: orig.Ops}
	half.Next()
	re, err := CloneTraces([]Trace{half})
	if err != nil {
		t.Fatal(err)
	}
	if op, ok := re[0].Next(); !ok || op.Addrs[0] != 0 {
		t.Fatalf("rewound clone starts at %+v", op)
	}

	// Generator-backed traces cannot be cloned safely.
	if _, err := CloneTraces([]Trace{streamTrace(4)}); err == nil {
		t.Error("FuncTrace clone must be rejected")
	}
}
