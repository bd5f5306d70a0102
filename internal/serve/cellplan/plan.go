// Package cellplan turns /v1 requests into the simulation cells they
// name. It is the one place both sides of the serving stack validate
// and expand work: an imtd shard plans a request to execute it, an
// imtgw gateway plans the same request to route it, and because both
// run this code they agree on every cell, every error and every cache
// key.
//
// Planning parses the tag mode, resolves a catalog name or a
// "trace:<digest>" reference, expands (workloads ∪ suite) × modes plus
// explicit cells, deduplicates by (workload, mode), applies the cell
// cap and computes the cell's runner.CacheKeyFor key (memoised for
// catalog cells with default caps, see Plan). The one shard-specific
// step, checking that a trace is resident and fits the machine, is a
// hook (Options.CheckTrace).
package cellplan

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Cell is one planned simulation cell.
type Cell struct {
	// Ref is the cell's wire identity: the request's own workload and
	// mode spelling.
	Ref apitypes.CellRef
	// Job is the runner job the cell simulates. A trace cell carries its
	// identity in Job.Key; whoever runs it attaches the replay.
	Job runner.Job
	// Key is the cell's content-addressed cache key, the bytes every
	// shard caches under and every gateway routes on.
	Key string
	// Digest is the trace digest of a "trace:<digest>" cell ("" for
	// catalog cells).
	Digest string
}

// Refs returns the cells' wire identities, in order.
func Refs(cells []Cell) []apitypes.CellRef {
	refs := make([]apitypes.CellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.Ref
	}
	return refs
}

// Options configures a Plan.
type Options struct {
	// Config is the simulated machine cache keys are computed under.
	Config gpusim.Config
	// MaxCells caps a sweep's expanded grid (0 = 4096).
	MaxCells int
	// CheckTrace, when non-nil, vets a well-formed trace digest before
	// the cell is accepted (a shard checks that its store holds the
	// blob and that it fits the machine). Its error is returned as is,
	// so a wrapped tracestore.ErrNotFound stays detectable.
	CheckTrace func(digest string) error
}

// Plan resolves and expands cells against one machine configuration
// and the workload catalog. It is safe for concurrent use.
//
// Its one piece of mutable state is a memo of cache keys, so a warm
// cell is not re-marshalled and re-hashed on every request. Only
// catalog cells with the default caps (max_cycles and sample_interval
// both 0) enter it, keyed by workload and parsed mode, so mode aliases
// share an entry and the memo never outgrows catalog × modes. Trace
// cells, capped cells and sampled (watched) cells compute their key
// every time and never enter it, so no stream of requests can grow it.
type Plan struct {
	opts   Options
	byName map[string]workload.Workload

	mu   sync.RWMutex
	keys map[memoKey]string
}

// memoKey identifies a memoised catalog cell. name is the catalog's
// own string, so an entry retains no request memory.
type memoKey struct {
	name  string
	mode  gpusim.TagMode
	carve gpusim.CarveOut
}

// New builds a plan over the workload catalog.
func New(opts Options) *Plan {
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	p := &Plan{opts: opts, byName: make(map[string]workload.Workload)}
	for _, w := range workload.Catalog() {
		p.byName[w.Name] = w
	}
	return p
}

// ResolveCell validates one cell and computes its cache key. A
// trace:<digest> cell is keyed by its trace identity alone: a gateway
// that never holds the blob derives the same key as a shard with the
// replay open, so trace cells route to the shard whose cache and trace
// store already hold them.
func (p *Plan) ResolveCell(name, mode string, maxCycles, sampleInterval uint64) (Cell, error) {
	tm, carve, err := gpusim.ParseTagMode(mode)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{
		Ref: apitypes.CellRef{Workload: name, Mode: mode},
		Job: runner.Job{
			Mode:           tm,
			Carve:          carve,
			MaxCycles:      maxCycles,
			SampleInterval: sampleInterval,
		},
	}
	if digest, ok := strings.CutPrefix(name, "trace:"); ok {
		if !tracestore.ValidDigest(digest) {
			return Cell{}, fmt.Errorf("serve: malformed trace workload %q (want trace:<64 lowercase hex sha-256>)", name)
		}
		if p.opts.CheckTrace != nil {
			if err := p.opts.CheckTrace(digest); err != nil {
				return Cell{}, err
			}
		}
		cell.Digest = digest
		cell.Job.Key = name
	} else {
		w, ok := p.byName[name]
		if !ok {
			return Cell{}, fmt.Errorf("serve: unknown workload %q (GET /v1/workloads lists the catalog)", name)
		}
		cell.Job.Workload = w
		if maxCycles == 0 && sampleInterval == 0 {
			cell.Key = p.catalogKey(memoKey{w.Name, tm, carve}, cell.Job)
			return cell, nil
		}
	}
	// Catalog and keyed trace cells are always cacheable.
	cell.Key, _ = runner.CacheKeyFor(p.opts.Config, cell.Job)
	return cell, nil
}

// catalogKey returns the memoised cache key of a default-caps catalog
// job, computing and storing it on first use.
func (p *Plan) catalogKey(mk memoKey, job runner.Job) string {
	p.mu.RLock()
	key, ok := p.keys[mk]
	p.mu.RUnlock()
	if ok {
		return key
	}
	key, _ = runner.CacheKeyFor(p.opts.Config, job)
	p.mu.Lock()
	if p.keys == nil {
		p.keys = make(map[memoKey]string)
	}
	p.keys[mk] = key
	p.mu.Unlock()
	return key
}

// ExpandSweep turns a sweep request into its grid: (named workloads ∪
// suite members) × modes, then the explicit req.Cells, in that order,
// with every (workload, mode) pair planned once. An explicit cell list
// is how a gateway scatters one shard's share of a grid, which is
// rarely a clean product. The cap applies to the deduplicated grid and
// is checked before any cell is resolved.
func (p *Plan) ExpandSweep(req apitypes.SweepRequest) ([]Cell, error) {
	// names is the deduplicated workload axis: catalog names and
	// trace:<digest> references mix freely (ResolveCell dispatches on
	// the prefix).
	var names []string
	seen := make(map[string]bool)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, name := range req.Workloads {
		if _, ok := p.byName[name]; !ok && !strings.HasPrefix(name, "trace:") {
			return nil, fmt.Errorf("serve: unknown workload %q", name)
		}
		add(name)
	}
	if req.Suite != "" {
		suite := workload.BySuite(req.Suite)
		if len(suite) == 0 {
			return nil, fmt.Errorf("serve: unknown suite %q (valid: %v)", req.Suite, workload.Suites())
		}
		for _, w := range suite {
			add(w.Name)
		}
	}
	if len(names) == 0 && len(req.Cells) == 0 {
		return nil, errors.New("serve: sweep needs workloads, a suite, and/or explicit cells")
	}
	if len(names) > 0 && len(req.Modes) == 0 {
		return nil, errors.New("serve: sweep needs at least one mode")
	}
	// Collection stops once past the cap, so a hostile grid costs work
	// proportional to the request's size, not to its product.
	var refs []apitypes.CellRef
	inGrid := make(map[apitypes.CellRef]bool)
	addRef := func(ref apitypes.CellRef) {
		if !inGrid[ref] {
			inGrid[ref] = true
			refs = append(refs, ref)
		}
	}
	for _, name := range names {
		if len(refs) > p.opts.MaxCells {
			break
		}
		for _, mode := range req.Modes {
			addRef(apitypes.CellRef{Workload: name, Mode: mode})
		}
	}
	for _, ref := range req.Cells {
		addRef(ref)
	}
	if len(refs) > p.opts.MaxCells {
		return nil, fmt.Errorf("serve: sweep expands to more than the server cap of %d cells", p.opts.MaxCells)
	}
	cells := make([]Cell, len(refs))
	for i, ref := range refs {
		cell, err := p.ResolveCell(ref.Workload, ref.Mode, req.MaxCycles, req.SampleInterval)
		if err != nil {
			return nil, err
		}
		cells[i] = cell
	}
	return cells, nil
}
