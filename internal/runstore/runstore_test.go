package runstore

import (
	"io"
	"reflect"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/xmltok"
)

func newStore(t *testing.T) (*Store, *em.Stats) {
	t.Helper()
	stats := em.NewStats()
	dev := em.NewDevice(em.NewMemBackend(), 64, stats)
	return New(dev), stats
}

func TestWriteReadRun(t *testing.T) {
	s, _ := newStore(t)
	id, w, err := s.Create(em.CatSubtreeSort, nil)
	if err != nil {
		t.Fatal(err)
	}
	toks := []xmltok.Token{
		{Kind: xmltok.KindStart, Name: "a", Attrs: []xmltok.Attr{{Name: "k", Value: "v"}}},
		{Kind: xmltok.KindText, Text: "hello"},
		{Kind: xmltok.KindRunPtr, Run: 42, Name: "sub", Key: "kk", HasKey: true},
		{Kind: xmltok.KindEnd, Name: "a"},
	}
	for _, tok := range toks {
		if err := writeToken(w, tok); err != nil {
			t.Fatal(err)
		}
	}
	if w.Tokens() != int64(len(toks)) {
		t.Errorf("Tokens = %d", w.Tokens())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open(id, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []xmltok.Token
	for {
		tok, err := readToken(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}
	if !reflect.DeepEqual(got, toks) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, toks)
	}
}

func TestReaderResumeAtOffset(t *testing.T) {
	s, _ := newStore(t)
	id, w, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(w, xmltok.Token{Kind: xmltok.KindStart, Name: "first"})
	writeToken(w, xmltok.Token{Kind: xmltok.KindEnd, Name: "first"})
	w.Close()

	r, _ := s.Open(id, nil, 0)
	if _, err := readToken(r); err != nil {
		t.Fatal(err)
	}
	resume := r.Offset()
	r.Close()

	// Re-open at the recorded offset, as the output phase does after a
	// detour into a child run.
	r2, err := s.Open(id, nil, resume)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	tok, err := readToken(r2)
	if err != nil || tok.Kind != xmltok.KindEnd || tok.Name != "first" {
		t.Errorf("resumed token = %+v, %v", tok, err)
	}
}

func TestStoreErrors(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Open(0, nil, 0); err == nil {
		t.Error("opening a nonexistent run should fail")
	}
	if _, err := s.Size(5); err == nil {
		t.Error("sizing a nonexistent run should fail")
	}
	id, w, _ := s.Create(em.CatSubtreeSort, nil)
	if _, err := s.Open(id, nil, 0); err == nil {
		t.Error("opening an unsealed run should fail")
	}
	w.Close()
	if _, err := s.Open(id, nil, 1<<20); err == nil {
		t.Error("offset beyond run should fail")
	}
}

func TestStoreAccounting(t *testing.T) {
	s, stats := newStore(t)
	id, w, _ := s.Create(em.CatSubtreeSort, nil)
	for i := 0; i < 50; i++ {
		writeToken(w, xmltok.Token{Kind: xmltok.KindText, Text: "0123456789"})
	}
	w.Close()
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.TotalBlocks() < 5 {
		t.Errorf("TotalBlocks = %d, want >= 5 (600 bytes over 64-byte blocks)", s.TotalBlocks())
	}
	if got := stats.Writes(em.CatSubtreeSort); got != int64(s.TotalBlocks()) {
		t.Errorf("writes = %d, blocks = %d", got, s.TotalBlocks())
	}
	sz, err := s.Size(id)
	if err != nil || sz != 600 {
		t.Errorf("Size = %d, %v", sz, err)
	}
}

// TestInspectTree builds the Figure 3 structure: a root run pointing at two
// child runs, one of which points at a grandchild.
func TestInspectTree(t *testing.T) {
	s, _ := newStore(t)

	grandID, gw, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(gw, xmltok.Token{Kind: xmltok.KindStart, Name: "g"})
	writeToken(gw, xmltok.Token{Kind: xmltok.KindEnd, Name: "g"})
	gw.Close()

	child1ID, c1, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(c1, xmltok.Token{Kind: xmltok.KindStart, Name: "c1"})
	writeToken(c1, xmltok.Token{Kind: xmltok.KindRunPtr, Run: int64(grandID), Name: "g"})
	writeToken(c1, xmltok.Token{Kind: xmltok.KindEnd, Name: "c1"})
	c1.Close()

	child2ID, c2, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(c2, xmltok.Token{Kind: xmltok.KindStart, Name: "c2"})
	writeToken(c2, xmltok.Token{Kind: xmltok.KindEnd, Name: "c2"})
	c2.Close()

	rootID, rw, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(rw, xmltok.Token{Kind: xmltok.KindStart, Name: "root"})
	writeToken(rw, xmltok.Token{Kind: xmltok.KindRunPtr, Run: int64(child1ID), Name: "c1"})
	writeToken(rw, xmltok.Token{Kind: xmltok.KindRunPtr, Run: int64(child2ID), Name: "c2"})
	writeToken(rw, xmltok.Token{Kind: xmltok.KindEnd, Name: "root"})
	rw.Close()

	tree, err := s.InspectTree(rootID)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Children[rootID]; !reflect.DeepEqual(got, []RunID{child1ID, child2ID}) {
		t.Errorf("root children = %v", got)
	}
	if got := tree.Children[child1ID]; !reflect.DeepEqual(got, []RunID{grandID}) {
		t.Errorf("child1 children = %v", got)
	}
	if got := tree.Children[child2ID]; len(got) != 0 {
		t.Errorf("child2 children = %v", got)
	}
	if len(tree.Children) != 4 {
		t.Errorf("tree has %d runs, want 4", len(tree.Children))
	}
}

func TestInspectTreeCycleDetection(t *testing.T) {
	s, _ := newStore(t)
	id, w, _ := s.Create(em.CatSubtreeSort, nil)
	writeToken(w, xmltok.Token{Kind: xmltok.KindRunPtr, Run: 0, Name: "self"})
	w.Close()
	if _, err := s.InspectTree(id); err == nil {
		t.Error("self-referential run tree should fail inspection")
	}
}

func TestBudgetedReadersWriters(t *testing.T) {
	s, _ := newStore(t)
	budget := em.NewBudget(5)
	id, w, err := s.Create(em.CatSubtreeSort, budget)
	if err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 1 {
		t.Errorf("writer grant = %d", budget.InUse())
	}
	writeToken(w, xmltok.Token{Kind: xmltok.KindText, Text: "x"})
	w.Close()
	r, err := s.Open(id, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 1 {
		t.Errorf("reader grant = %d", budget.InUse())
	}
	r.Close()
	if budget.InUse() != 0 {
		t.Errorf("leaked %d blocks", budget.InUse())
	}
}

// writeToken appends tok's encoding to w.
func writeToken(w *Writer, tok xmltok.Token) error {
	return w.Append(xmltok.AppendToken(nil, tok))
}

// readToken decodes the view of the next token of r.
func readToken(r *Reader) (xmltok.Token, error) {
	v, err := r.Next()
	if err != nil {
		return xmltok.Token{}, err
	}
	var d xmltok.Decoder
	return d.DecodeToken(v.Bytes())
}
