package main

import (
	"math"

	"nexsort"
	"nexsort/internal/gen"
)

// workload is one benchmark input: a generated document and the geometry
// both sorters run it under. The sorters only ever see the written file.
type workload struct {
	name string
	// doc returns the document generator for a seed at a scale (1 is the
	// benchmark's size).
	doc func(seed int64, scale float64) nexsort.Generator
	// criterion is the ordering spec, in nexsort.ParseCriterion syntax.
	criterion string
	blockSize int
	// memory returns M in bytes for an input of the given size.
	memory func(inputBytes int64) int64
	// inputSHA and outputSHA pin the generated input and its sorted output
	// at seed pinnedSeed and scale 1, so generator drift and any change to
	// the output bytes are failures.
	inputSHA, outputSHA string
	// copyS is the median wall time of the reference copy of the document
	// on the host RESULTS.md was measured on; setup_s is in seconds on
	// that host.
	copyS float64
}

// copyS of each document; RESULTS.md says how it was measured.
const (
	hierCopyS = 0.155
	flatCopyS = 0.140
	siteCopyS = 0.117
)

const pinnedSeed = 9

func constMemory(m int64) func(int64) int64 { return func(int64) int64 { return m } }

// scaled multiplies a size parameter by scale, keeping it at least min.
func scaled(n int, scale float64, min int) int {
	return max(min, int(math.Round(float64(n)*scale)))
}

// The documents are 1/40 to 1/20 of the ROADMAP's 68 MB reference run, so
// that one sort takes 0.1-0.3 s and a 25-second run holds 30-70 timed sorts
// of each algorithm: on a shared host, many short samples give a steadier
// average than a few long ones. Each workload keeps the property it was
// chosen for; README.md gives the reasons.
var workloads = []workload{
	{
		// NEXSORT's home case: many small subtree sorts, none external.
		name:      "hier",
		doc:       hierDoc,
		criterion: "@key",
		blockSize: 4 << 10,
		memory:    constMemory(1 << 20),
		inputSHA:  "eff3e0f34c3e36615d767a1697ff260d81f342033c4c9f5a3ae0babe9019696b",
		outputSHA: "b7f568a2e1376fa99b8aa56194f6f5038b29bddb7ea5edf4abe41fe44c86fdac",
		copyS:     hierCopyS,
	},
	{
		// One 25,000-child subtree: a single external subtree sort that
		// pages the whole document through the data stack.
		name: "flat",
		doc: func(seed int64, scale float64) nexsort.Generator {
			return nexsort.CustomSpec{Fanouts: []int{scaled(25000, scale, 50)}, Seed: seed}
		},
		criterion: "@key",
		blockSize: 4 << 10,
		memory:    constMemory(1 << 20),
		inputSHA:  "34a53c49a79dd0aab130d6a26009dc93f3cd512da09a4562124ff5a8996fe0db",
		outputSHA: "df5c1fd40d0ef1c2afdd8c262cc59f27fdb5b16c9ffb8cfbe9ebe4c5b43ce7c6",
		copyS:     flatCopyS,
	},
	{
		// Small elements, text children, three tag rules and unkeyed
		// children: per-token and per-key costs dominate. M is 48 blocks so
		// that each of the six regions (about 0.3 MB) still needs an
		// external subtree sort at this size.
		name: "site",
		doc: func(seed int64, scale float64) nexsort.Generator {
			return gen.SiteSpec{Items: scaled(1000, scale, 5), MaxBids: 10, Seed: seed}
		},
		criterion: "region=@name,item=@id,bid=@amount",
		blockSize: 4 << 10,
		memory:    constMemory(192 << 10),
		inputSHA:  "4408e602aefe288463ace01246c621a5dccf10c434bd7bde28389b6d3e5a8a4b",
		outputSHA: "ce1f7c2aaee176093d62b491ed0eeb80b3cb5e3460f1a10a37470d8a56b77a71",
		copyS:     siteCopyS,
	},
	{
		// The hier document in memory twice its size with 64 KiB blocks:
		// merge sort forms no runs, and device calls are 16x fewer and
		// larger than in hier.
		name:      "hier-fits",
		doc:       hierDoc,
		criterion: "@key",
		blockSize: nexsort.DefaultBlockSize,
		memory: func(inputBytes int64) int64 {
			const b = nexsort.DefaultBlockSize
			return max(16*b, (2*inputBytes+b-1)/b*b)
		},
		inputSHA:  "eff3e0f34c3e36615d767a1697ff260d81f342033c4c9f5a3ae0babe9019696b",
		outputSHA: "b7f568a2e1376fa99b8aa56194f6f5038b29bddb7ea5edf4abe41fe44c86fdac",
		copyS:     hierCopyS,
	},
}

// hierDoc is the document of hier and hier-fits: a near-uniform tree with
// fan-outs capped at 6.
func hierDoc(seed int64, scale float64) nexsort.Generator {
	spec := nexsort.CappedShape(int64(scaled(25000, scale, 50)), 6)
	spec.Seed = seed
	return spec
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
