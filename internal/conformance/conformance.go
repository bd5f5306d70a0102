package conformance

import "fmt"

// Cell is one deterministic experiment whose canonical-JSON output is
// pinned under testdata/golden/<name>.json.
type Cell struct {
	// Name is the golden file base name; file-system safe.
	Name string
	// About says what a drift in this cell means.
	About string
	// Run produces the cell's result; it must be deterministic across
	// machines, worker counts and repeated invocations.
	Run func() (any, error)
}

// Finding is one conformance violation: a named check and what diverged.
type Finding struct {
	Check  string
	Detail string
}

func (f Finding) String() string { return f.Check + ": " + f.Detail }

// Cells returns the golden-regression registry. Order is stable; names
// are unique.
func Cells() []Cell {
	var cells []Cell
	for _, name := range simWorkloads() {
		cells = append(cells, simCell(name))
	}
	cells = append(cells,
		sampledSimCell("stream-copy-16MB"),
		eccConstructionsCell(),
		afteccConstructionCell(),
		reliabilityCurveCell(),
		securityCell(),
		workloadCatalogCell(),
		reproQuickGridCell(),
		sweepColdGridCell(),
	)
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Name] {
			panic(fmt.Sprintf("conformance: duplicate cell %q", c.Name))
		}
		seen[c.Name] = true
	}
	return cells
}

// CheckAll runs every pillar — golden regression, differential oracles
// and metamorphic invariants — and returns all findings. Empty means
// the tree conforms.
func CheckAll() []Finding {
	var out []Finding
	out = append(out, CheckGoldens()...)
	out = append(out, CheckOracles()...)
	out = append(out, CheckInvariants()...)
	return out
}
