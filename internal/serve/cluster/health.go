package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/apitypes"
)

// breaker is one shard's circuit breaker. States:
//
//	closed    → routable; normal operation.
//	open      → excluded from routing. Entered from any state on a
//	            request/stream failure or a failed health probe.
//	half-open → tentatively routable. Entered from open on the first
//	            successful health probe; a second consecutive success
//	            (probe or routed request) closes the breaker, any
//	            failure reopens it.
//
// Probes run in the background (Gateway's prober loop), so a dead
// shard is discovered within one probe interval even with no traffic,
// and a recovered shard rejoins routing without operator action.
type breaker struct {
	mu       sync.Mutex
	state    string // apitypes.BreakerClosed | BreakerOpen | BreakerHalfOpen
	okStreak int
	opens    atomic.Uint64 // lifetime → open transitions
}

func newBreaker() *breaker {
	return &breaker{state: apitypes.BreakerClosed}
}

func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// routable reports whether the shard may receive traffic (closed or
// half-open).
func (b *breaker) routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != apitypes.BreakerOpen
}

// onFailure trips the breaker: any request, stream or probe failure
// opens it. Reports whether this call transitioned the state (for the
// serve_gw_breaker_opens_total counter).
func (b *breaker) onFailure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.okStreak = 0
	if b.state == apitypes.BreakerOpen {
		return false
	}
	b.state = apitypes.BreakerOpen
	b.opens.Add(1)
	return true
}

// onSuccess records a success. Probe successes walk open → half-open →
// closed; request successes close a half-open breaker immediately (a
// real request is at least as strong a signal as a probe) and are
// no-ops on a closed one. Requests are never routed to an open shard,
// so a request success in state open (a race with the breaker
// tripping) only moves it to half-open.
func (b *breaker) onSuccess(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case apitypes.BreakerOpen:
		b.state = apitypes.BreakerHalfOpen
		b.okStreak = 1
	case apitypes.BreakerHalfOpen:
		b.okStreak++
		if !probe || b.okStreak >= 2 {
			b.state = apitypes.BreakerClosed
		}
	}
}

// shardState is everything the gateway tracks per shard: the breaker
// plus reroute accounting.
type shardState struct {
	url      string
	br       *breaker
	rerouted atomic.Uint64 // cells moved away from this shard
}

// probeAll health-checks every shard once, synchronously, updating the
// breakers. Exposed (as Gateway.ProbeNow) so tests and the prober loop
// share one code path.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ss := range g.shards {
		wg.Add(1)
		go func(ss *shardState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, g.opts.ProbeTimeout)
			defer cancel()
			err := g.pool.Raw(ss.url).Health(pctx)
			g.mProbes.Inc()
			if err != nil {
				g.mProbeFailures.Inc()
				if ss.br.onFailure() {
					g.mBreakerOpens.Inc()
				}
			} else {
				ss.br.onSuccess(true)
			}
		}(ss)
	}
	wg.Wait()
	g.gaugeShardsUp()
}

// ProbeNow runs one synchronous health-probe round across the fleet.
// The background prober calls it every ProbeInterval; tests call it
// directly for deterministic breaker transitions.
func (g *Gateway) ProbeNow(ctx context.Context) { g.probeAll(ctx) }

// prober is the background probe loop, started by New and stopped by
// Close.
func (g *Gateway) prober() {
	defer g.probeWG.Done()
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopProbe:
			return
		case <-t.C:
			g.probeAll(context.Background())
		}
	}
}

func (g *Gateway) gaugeShardsUp() {
	up := 0
	for _, ss := range g.shards {
		if ss.br.routable() {
			up++
		}
	}
	g.mShardsUp.Set(float64(up))
}
