package nexsort_test

import (
	"bytes"
	"io"
	"testing"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/em/chaostest"
	"nexsort/internal/extsort"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
)

// frameCrit is the standard generated-workload criterion: order every
// element by the generator's key attribute.
func frameCrit() *keys.Criterion {
	return &keys.Criterion{
		Rules:  []keys.Rule{{Tag: "", Source: keys.ByAttr(gen.DefaultKeyAttr)}},
		KeyCap: 16,
	}
}

// TestFrameConformanceSorters runs both sorters on a spilling workload and
// checks the frame pool's side of the budget contract: every frame released
// by teardown, the live-frame peak contained in the budget's peak, the
// budget's peak contained in M, and the free list actually recycling (the
// point of the substrate).
func TestFrameConformanceSorters(t *testing.T) {
	doc, _, err := chaostest.Doc(2500, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range chaostest.Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := em.Config{BlockSize: 512, MemBlocks: 20, InMemory: true, Parallelism: 2}
			env, err := em.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()

			var out bytes.Buffer
			switch algo {
			case chaostest.Nexsort:
				_, err = core.Sort(env, bytes.NewReader(doc), &out, core.Options{Criterion: frameCrit()})
			default:
				_, err = extsort.SortXML(env, frameCrit(), bytes.NewReader(doc), io.Writer(&out), extsort.XMLOptions{})
			}
			if err != nil {
				t.Fatal(err)
			}

			pool := env.Dev.Frames()
			if pool.Live() != 0 {
				t.Errorf("%d frames still live after the sort returned", pool.Live())
			}
			if env.Budget.InUse() != 0 {
				t.Errorf("%d budget blocks still granted after the sort returned", env.Budget.InUse())
			}
			if pool.PeakLive() > env.Budget.Peak() {
				t.Errorf("frame peak %d exceeds budget peak %d: a buffer existed without a grant",
					pool.PeakLive(), env.Budget.Peak())
			}
			if env.Budget.Peak() > cfg.MemBlocks {
				t.Errorf("budget peak %d exceeds M=%d", env.Budget.Peak(), cfg.MemBlocks)
			}
			if pool.Recycled() == 0 {
				t.Error("no frame was ever recycled: the pool is not serving repeat acquisitions")
			}
		})
	}
}
