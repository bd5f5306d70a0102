package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuGroups maps source files to the cpu_share.<group> metrics, first
// match wins. Paths are as a -trimpath build records them: module code
// as "repro/internal/...", the standard library as "net/http/...".
var cpuGroups = []struct {
	group string
	match func(file string) bool
}{
	{"gpusim_sim", suffix("internal/gpusim/sim.go")},
	{"gpusim_cache", suffix("internal/gpusim/cache.go")},
	{"gpusim_pool_ring", anyOf(suffix("internal/gpusim/pool.go"), suffix("internal/gpusim/ring.go"))},
	{"gpusim_divmod", suffix("internal/gpusim/divmod.go")},
	{"gpusim_tracestream", suffix("internal/gpusim/tracestream.go")},
	{"gpusim_other", contains("internal/gpusim/")},
	{"workload", contains("internal/workload/")},
	{"runner_cache", suffix("internal/runner/cache.go")},
	{"reliability_bitslice", anyOf(contains("internal/reliability/"), contains("internal/ecc/bitslice/"))},
	{"encoding_json", contains("encoding/json/")},
	{"net_http", contains("net/http/")},
	{"crypto_sha256", contains("sha256")},
	{"syscall", anyOf(contains("syscall"), contains("runtime/sys_linux"))},
	{"gc", anyOf(contains("runtime/mgc"), contains("runtime/mbitmap"), contains("runtime/mwbbuf"), contains("runtime/mspanset"))},
	{"runtime", contains("runtime/")},
}

func suffix(s string) func(string) bool {
	return func(f string) bool { return strings.HasSuffix(f, s) }
}
func contains(s string) func(string) bool {
	return func(f string) bool { return strings.Contains(f, s) }
}
func anyOf(ms ...func(string) bool) func(string) bool {
	return func(f string) bool {
		for _, m := range ms {
			if m(f) {
				return true
			}
		}
		return false
	}
}

// startProfile starts a CPU profile into path; the returned func stops
// it and closes the file.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// cpuShares runs `go tool pprof -top -files` over a CPU profile and
// returns each group's share of the sampled CPU time in percent. Files
// that match no group count toward "other".
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-nodecount=100000", "-nodefraction=0", profile)
	outp, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return groupTop(string(outp))
}

// groupTop sums the flat% column of pprof -top output by cpuGroups.
func groupTop(top string) (map[string]float64, error) {
	shares := map[string]float64{"other": 0}
	for _, g := range cpuGroups {
		shares[g.group] = 0
	}
	header := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		file := strings.Join(fields[5:], " ")
		group := "other"
		for _, g := range cpuGroups {
			if g.match(file) {
				group = g.group
				break
			}
		}
		shares[group] += pct
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no flat/flat%% header")
	}
	return shares, nil
}
