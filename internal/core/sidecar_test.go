package core

import (
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
	"nexsort/internal/xstack"
)

// TestKeySidecarKernelFailureReleasesReader: when the key sidecar's sorter
// cannot be granted its blocks, buildKeySidecar fails and gives back the
// range reader it had opened, its budget block and its frame.
func TestKeySidecarKernelFailureReleasesReader(t *testing.T) {
	env := newEnv(t, 256, 16)
	crit := &keys.Criterion{Rules: []keys.Rule{{Tag: "a", Source: keys.ByPath("b")}}}
	s, err := newSorter(env, Options{Criterion: crit})
	if err != nil {
		t.Fatal(err)
	}
	if s.data, err = xstack.NewByteStack(env.Dev, em.CatDataStack, env.Budget, 1); err != nil {
		t.Fatal(err)
	}
	defer s.data.Close()
	p := xmltok.NewParser(strings.NewReader(`<a><b>x</b><b>y</b></a>`), xmltok.DefaultParserOptions())
	for {
		tok, err := p.NextEncoded()
		if err != nil {
			break
		}
		if err := s.data.Push(tok.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// The range reader's block is granted; the sorter's sidecarBlocks are
	// not.
	hold := env.Budget.Free() - 1
	if err := env.Budget.Grant(hold); err != nil {
		t.Fatal(err)
	}
	defer env.Budget.Release(hold)
	inUse, live := env.Budget.InUse(), env.Dev.Frames().Live()
	sc, err := s.buildKeySidecar(0)
	if err == nil {
		sc.Close()
		t.Fatal("the key sidecar was built with no blocks for its sorter")
	}
	if !strings.HasPrefix(err.Error(), "extsort: ") {
		t.Errorf("error %q, want the sorter's grant failure", err)
	}
	if got := env.Budget.InUse(); got != inUse {
		t.Errorf("budget in use %d after the failure, %d before", got, inUse)
	}
	if got := env.Dev.Frames().Live(); got != live {
		t.Errorf("%d frames live after the failure, %d before", got, live)
	}
}
