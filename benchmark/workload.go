package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"riotshare/internal/server"
)

// request is one generated submission: which program, under which tenant.
type request struct {
	prog   *program
	tenant string
}

// body is the JSON the server receives — the only thing it ever sees of
// the workload.
func (r request) body() ([]byte, error) {
	return json.Marshal(server.Request{Spec: r.prog.spec(), Tenant: r.tenant})
}

// workload is one traffic mix with the server configuration it runs on.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json and the README: the layer the
	// workload makes dominant and the layers it idles.
	why string
	// perSecond sizes the request list: count = perSecond × -seconds,
	// fixed per workload so counts compare across commits. It was
	// calibrated at the commit that added the benchmark so the measured
	// phase lasts about -seconds there.
	perSecond float64
	// stream pulls results through GET /results/stream (binary,
	// retain=drop) while the query runs instead of /results?wait=1.
	stream bool
	// blockd is the number of in-process block servers the store spans.
	blockd int
	// config sizes the server over dir (and the block servers' addresses).
	config func(dir string, seed int64, addrs []string) server.Config
	// warm lists the programs submitted once during set-up: together they
	// touch every shared input (so fills happen before the measured phase)
	// and, on plan-cached workloads, every measured program.
	warm func() []*program
	// mix returns the measured programs as a multiset of n entries. The
	// multiset depends only on n — the seed permutes it and labels tenants
	// — so per-query I/O volumes are identical across seeds.
	mix func(n int) []*program
}

const (
	clients      = 2  // closed-loop client goroutines (nproc is 2)
	tenantLabels = 32 // distinct tenant labels on every workload
	// minRequests leaves 204 samples in the six quiet slices of eight that
	// the timing metrics use (pass.quiet): query_p95_ms needs 200.
	minRequests   = 272
	tracedDivisor = 4 // the traced pass runs a quarter of the requests, with 1 client
	// rounds is how many equal slices of identical work the request list is
	// made of; see generate and quietRounds.
	rounds = 8
)

// count is the number of measured requests for a run of the given length,
// a whole number of rounds.
func (w *workload) count(seconds int) int {
	n := int(math.Round(w.perSecond * float64(seconds)))
	if n < minRequests {
		n = minRequests
	}
	return (n + rounds - 1) / rounds * rounds
}

// generate is the request list: a pure function of (workload, seed, n). The
// mix comes ordered with like programs adjacent; dealing it out card by card
// gives every round the same multiset (to within one request), and the seed
// orders each round and labels the tenants.
func (w *workload) generate(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	deal := make([][]*program, rounds)
	for k, p := range w.mix(n) {
		deal[k%rounds] = append(deal[k%rounds], p)
	}
	var reqs []request
	for _, round := range deal {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, p := range round {
			reqs = append(reqs, request{prog: p, tenant: fmt.Sprintf("tenant-%02d", rng.Intn(tenantLabels))})
		}
	}
	return reqs
}

// encode renders every request's body.
func encode(reqs []request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := r.body()
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// ndjson joins request bodies one per line (the determinism artifact
// written to out/<workload>.requests.ndjson).
func ndjson(bodies [][]byte) []byte {
	return append(bytes.Join(bodies, []byte{'\n'}), '\n')
}

// apportion splits n into len(weights) whole counts proportional to the
// weights (largest remainder), so a skewed mix is the same for every seed.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(weights))
	used := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		used += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < n-used; k++ {
		counts[rems[k%len(rems)].i]++
	}
	return counts
}

// weightedMix is n programs drawn from progs in proportion to weight(rank),
// like programs adjacent.
func weightedMix(n int, progs []*program, weight func(rank int) float64) []*program {
	weights := make([]float64, len(progs))
	for i := range weights {
		weights[i] = weight(i)
	}
	var out []*program
	for i, count := range apportion(n, weights) {
		for k := 0; k < count; k++ {
			out = append(out, progs[i])
		}
	}
	return out
}

func evenly(int) float64 { return 1 }

var workloads = []*workload{coldPlan, hotShared, spillChain, remoteStream}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- cold-plan ----

// coldTemplates are the six 2–3-statement program shapes of cold-plan, over
// block grids n1×n2, n2×n3 and n1×n3 of b×b blocks.
var coldTemplates = []struct {
	name  string
	build func(b *builder, blk, n1, n2, n3 int)
}{
	{"addmul", func(b *builder, blk, n1, n2, n3 int) { // C=A+B; E=C·D
		c := b.elementwise("add", "C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n1, n2), true)
		b.mul("E", c, b.input("c", blk, blk, n2, n3), false)
	}},
	{"submul", func(b *builder, blk, n1, n2, n3 int) { // C=A−B; E=C·D
		c := b.elementwise("sub", "C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n1, n2), true)
		b.mul("E", c, b.input("c", blk, blk, n2, n3), false)
	}},
	{"muladd", func(b *builder, blk, n1, n2, n3 int) { // C=A·B; E=C+D
		c := b.mul("C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n2, n3), true)
		b.elementwise("add", "E", c, b.input("c", blk, blk, n1, n3), false)
	}},
	{"mulsub", func(b *builder, blk, n1, n2, n3 int) { // C=A·B; E=C−D
		c := b.mul("C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n2, n3), true)
		b.elementwise("sub", "E", c, b.input("c", blk, blk, n1, n3), false)
	}},
	{"addsubmul", func(b *builder, blk, n1, n2, n3 int) { // C=A+B; F=C−D; G=F·H
		c := b.elementwise("add", "C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n1, n2), true)
		f := b.elementwise("sub", "F", c, b.input("c", blk, blk, n1, n2), true)
		b.mul("G", f, b.input("d", blk, blk, n2, n3), false)
	}},
	{"mulsubadd", func(b *builder, blk, n1, n2, n3 int) { // C=A·B; F=C−D; G=F+H
		c := b.mul("C", b.input("a", blk, blk, n1, n2), b.input("b", blk, blk, n2, n3), true)
		f := b.elementwise("sub", "F", c, b.input("c", blk, blk, n1, n3), true)
		b.elementwise("add", "G", f, b.input("d", blk, blk, n1, n3), false)
	}},
}

const coldGridMin, coldGridMax = 2, 6

var coldBlocks = []int{4, 8}

// coldSpecs enumerates every (template, block, n1, n2, n3) combination in a
// fixed order: by template, then by grid volume, so an evenly spaced
// selection covers every template and the whole size range.
func coldSpecs() []*program {
	var out []*program
	for _, t := range coldTemplates {
		type size struct{ blk, n1, n2, n3 int }
		var sizes []size
		for _, blk := range coldBlocks {
			for n1 := coldGridMin; n1 <= coldGridMax; n1++ {
				for n2 := coldGridMin; n2 <= coldGridMax; n2++ {
					for n3 := coldGridMin; n3 <= coldGridMax; n3++ {
						sizes = append(sizes, size{blk, n1, n2, n3})
					}
				}
			}
		}
		sort.SliceStable(sizes, func(a, b int) bool {
			return sizes[a].n1*sizes[a].n2*sizes[a].n3 < sizes[b].n1*sizes[b].n2*sizes[b].n3
		})
		for _, s := range sizes {
			b := newBuilder(fmt.Sprintf("cold-%s-b%d-%dx%dx%d", t.name, s.blk, s.n1, s.n2, s.n3))
			t.build(b, s.blk, s.n1, s.n2, s.n3)
			out = append(out, b.build())
		}
	}
	return out
}

var coldPlan = &workload{
	name: "cold-plan",
	why: "every request is a novel spec over tiny blocks, so planning is nearly all of latency " +
		"and exec, pool and storage idle: planner work shows here and nowhere else",
	perSecond: 10,
	config: func(dir string, seed int64, _ []string) server.Config {
		return server.Config{Dir: dir, Seed: seed, Workers: 1, PlanBudget: 2 * time.Second}
	},
	// One single-statement add per pair of input roles and shape fills
	// every input any cold spec can reference; the "warm-" names keep these
	// out of the measured specs' plan-cache keys.
	warm: func() []*program {
		var out []*program
		for _, blk := range coldBlocks {
			for r := coldGridMin; r <= coldGridMax; r++ {
				for c := coldGridMin; c <= coldGridMax; c++ {
					for _, roles := range [][2]string{{"a", "b"}, {"c", "d"}} {
						b := newBuilder(fmt.Sprintf("warm-%s%s-b%d-%dx%d", roles[0], roles[1], blk, r, c))
						b.elementwise("add", "W", b.input(roles[0], blk, blk, r, c), b.input(roles[1], blk, blk, r, c), false)
						out = append(out, b.build())
					}
				}
			}
		}
		return out
	},
	mix: func(n int) []*program {
		all := coldSpecs()
		if n > len(all) {
			n = len(all) // every request must stay a distinct plan-cache key
		}
		out := make([]*program, n)
		for i := range out {
			out[i] = all[i*len(all)/n]
		}
		return out
	},
}

// ---- hot-shared ----

const hotBlock, hotGrid = 32, 6

// hotPrograms are the four pre-planned programs over the same three
// pool-resident inputs.
func hotPrograms() []*program {
	in := func(b *builder, role string) string { return b.input(role, hotBlock, hotBlock, hotGrid, hotGrid) }
	var out []*program
	b := newBuilder("hot-add") // O = X+Y
	b.elementwise("add", "O", in(b, "x"), in(b, "y"), false)
	out = append(out, b.build())
	b = newBuilder("hot-sub") // O = X−Z
	b.elementwise("sub", "O", in(b, "x"), in(b, "z"), false)
	out = append(out, b.build())
	b = newBuilder("hot-mul") // O = Y·Z
	b.mul("O", in(b, "y"), in(b, "z"), false)
	out = append(out, b.build())
	b = newBuilder("hot-addmul") // T = X+Y; O = T·Z
	b.mul("O", b.elementwise("add", "T", in(b, "x"), in(b, "y"), true), in(b, "z"), false)
	out = append(out, b.build())
	return out
}

var hotShared = &workload{
	name: "hot-shared",
	why: "four cached plans over three pool-resident inputs, zipf-skewed, so plan and reads are free " +
		"and what is left is server, governor, pool-hit path and result fetch",
	perSecond: 180,
	config: func(dir string, seed int64, _ []string) server.Config {
		return server.Config{Dir: dir, Seed: seed, Workers: 1, PlanBudget: 2 * time.Second}
	},
	warm: hotPrograms,
	mix: func(n int) []*program {
		zipf := func(rank int) float64 { return 1 / math.Pow(float64(rank+1), 1.1) }
		return weightedMix(n, hotPrograms(), zipf)
	},
}

// ---- spill-chain ----

const spillBlock = 64

var spillGrids = []int{4, 5, 6}

// spillPoolBytes is a fifth of a mid-sized query's working set (25 blocks,
// one of its five 5×5 arrays), so intermediates spill and are re-read.
const spillPoolBytes = 25 * spillBlock * spillBlock * 8

// spillPrograms are the two three-op pipelines with transient
// intermediates: C=A+B; E=C·D at every grid size, and C=A·B; F=C·D; G=F−H at
// the middle one (its plan takes ~1 s to find, and set-up plans every
// program).
func spillPrograms() []*program {
	var out []*program
	for _, g := range spillGrids {
		in := func(b *builder, role string) string { return b.input(role, spillBlock, spillBlock, g, g) }
		b := newBuilder(fmt.Sprintf("spill-addmul-%d", g))
		b.mul("E", b.elementwise("add", "C", in(b, "a"), in(b, "b"), true), in(b, "c"), false)
		out = append(out, b.build())
		if g != spillGrids[len(spillGrids)/2] {
			continue
		}
		b = newBuilder(fmt.Sprintf("spill-mulmulsub-%d", g))
		f := b.mul("F", b.mul("C", in(b, "a"), in(b, "b"), true), in(b, "c"), true)
		b.elementwise("sub", "G", f, in(b, "d"), false)
		out = append(out, b.build())
	}
	return out
}

var spillChain = &workload{
	name: "spill-chain",
	why: "three-op pipelines whose intermediates overflow a small pool on a 2-shard local store, " +
		"so kernels, eviction/write-back and local reads and writes dominate; planning is ~0",
	perSecond: 16,
	config: func(dir string, seed int64, _ []string) server.Config {
		return server.Config{
			Dir: dir, Seed: seed, Shards: 2, PoolBytes: spillPoolBytes,
			Workers: 2, PlanBudget: 2 * time.Second,
		}
	},
	warm: spillPrograms,
	mix:  func(n int) []*program { return weightedMix(n, spillPrograms(), evenly) },
}

// ---- remote-stream ----

const streamBlock, streamGrid = 32, 8

// streamPoolBytes is a quarter of the streamed result |C|.
const streamPoolBytes = streamGrid * streamGrid * streamBlock * streamBlock * 8 / 4

func streamPrograms() []*program {
	b := newBuilder("stream-mul") // C = A·B
	b.mul("C", b.input("a", streamBlock, streamBlock, streamGrid, streamGrid),
		b.input("b", streamBlock, streamBlock, streamGrid, streamGrid), false)
	return []*program{b.build()}
}

var remoteStream = &workload{
	name: "remote-stream",
	why: "one product over two loopback block servers with 2 replicas, result streamed while it runs: " +
		"every read and mirrored write crosses the wire and delivery overlaps exec",
	perSecond: 20, // a quarter over budget: its timing follows the machine's slow stretches most
	stream:    true,
	blockd:    2,
	config: func(_ string, seed int64, addrs []string) server.Config {
		return server.Config{
			ShardAddrs: addrs, Replicas: 2, Seed: seed, PoolBytes: streamPoolBytes,
			Workers: 2, PlanBudget: 2 * time.Second,
		}
	},
	warm: streamPrograms,
	mix:  func(n int) []*program { return weightedMix(n, streamPrograms(), evenly) },
}
