package xstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"nexsort/internal/em"
)

func newDev(t *testing.T, blockSize int) (*em.Device, *em.Stats) {
	t.Helper()
	stats := em.NewStats()
	return em.NewDevice(em.NewMemBackend(), blockSize, stats), stats
}

func TestByteStackPushReadTruncate(t *testing.T) {
	dev, _ := newDev(t, 32)
	s, err := NewByteStack(dev, em.CatDataStack, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ref []byte
	push := func(p []byte) {
		if err := s.Push(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p...)
	}
	push([]byte("first-unit|"))
	mark := s.Size()
	push([]byte("second-unit-is-much-longer-than-one-block|"))
	push([]byte("third|"))

	if s.Size() != int64(len(ref)) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(ref))
	}

	r, err := s.ReadRange(nil, mark)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(got, ref[mark:]) {
		t.Errorf("ReadRange = %q, want %q", got, ref[mark:])
	}

	if err := s.Truncate(mark); err != nil {
		t.Fatal(err)
	}
	ref = ref[:mark]
	push([]byte("replacement"))

	r, _ = s.ReadRange(nil, 0)
	got, _ = io.ReadAll(r)
	r.Close()
	if !bytes.Equal(got, ref) {
		t.Errorf("after truncate+push: %q, want %q", got, ref)
	}
}

func TestByteStackTruncateToZero(t *testing.T) {
	dev, stats := newDev(t, 16)
	s, _ := NewByteStack(dev, em.CatDataStack, nil, 1)
	defer s.Close()
	s.Push(make([]byte, 100)) // spans several blocks, evicting most
	if err := s.Truncate(0); err != nil {
		t.Fatal(err)
	}
	reads := stats.Reads(em.CatDataStack)
	if reads != 0 {
		t.Errorf("truncate-to-zero paged in %d blocks, want 0", reads)
	}
	s.Push([]byte("fresh"))
	r, _ := s.ReadRange(nil, 0)
	got, _ := io.ReadAll(r)
	r.Close()
	if string(got) != "fresh" {
		t.Errorf("after reset: %q", got)
	}
}

func TestByteStackBounds(t *testing.T) {
	dev, _ := newDev(t, 16)
	s, _ := NewByteStack(dev, em.CatDataStack, nil, 1)
	defer s.Close()
	s.Push([]byte("abc"))
	if err := s.Truncate(4); err == nil {
		t.Error("truncate beyond size should fail")
	}
	if err := s.Truncate(-1); err == nil {
		t.Error("negative truncate should fail")
	}
	if _, err := s.ReadRange(nil, 4); err == nil {
		t.Error("out-of-range read should fail")
	}
}

func TestByteStackPagingCounts(t *testing.T) {
	// With a 1-block window and block size 16, pushing 5 blocks' worth
	// evicts 4 dirty blocks; reading it all back pages in the 4 evicted
	// blocks (the resident one is free).
	dev, stats := newDev(t, 16)
	s, _ := NewByteStack(dev, em.CatDataStack, nil, 1)
	defer s.Close()
	s.Push(make([]byte, 80))
	if w := stats.Writes(em.CatDataStack); w != 4 {
		t.Errorf("evict writes = %d, want 4", w)
	}
	r, _ := s.ReadRange(nil, 0)
	io.ReadAll(r)
	r.Close()
	if rd := stats.Reads(em.CatDataStack); rd != 4 {
		t.Errorf("range reads = %d, want 4", rd)
	}
}

func TestByteStackCleanEvictionNotRewritten(t *testing.T) {
	// A block paged in by a truncate and then evicted again untouched must
	// not be written a second time.
	dev, stats := newDev(t, 16)
	s, _ := NewByteStack(dev, em.CatDataStack, nil, 1)
	defer s.Close()
	s.Push(make([]byte, 40)) // blocks 0,1 evicted dirty; block 2 resident
	w0 := stats.Writes(em.CatDataStack)
	if err := s.Truncate(20); err != nil { // pages block 1 back in
		t.Fatal(err)
	}
	r0 := stats.Reads(em.CatDataStack)
	if r0 != 1 {
		t.Fatalf("truncate paged in %d blocks, want 1", r0)
	}
	// Push enough to evict block 1 again; it is dirty now (push landed in
	// it), so one write. Then block 2 is fresh.
	s.Push(make([]byte, 20))
	if w := stats.Writes(em.CatDataStack) - w0; w != 1 {
		t.Errorf("re-eviction wrote %d blocks, want 1 (dirty)", w)
	}
}

func TestByteStackBudget(t *testing.T) {
	dev, _ := newDev(t, 16)
	budget := em.NewBudget(5)
	s, err := NewByteStack(dev, em.CatDataStack, budget, 2)
	if err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", budget.InUse())
	}
	s.Push(make([]byte, 100))
	r, err := s.ReadRange(budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 3 {
		t.Errorf("InUse with reader = %d, want 3", budget.InUse())
	}
	r.Close()
	s.Close()
	if budget.InUse() != 0 {
		t.Errorf("leaked %d blocks", budget.InUse())
	}
	if _, err := NewByteStack(dev, em.CatDataStack, em.NewBudget(1), 2); !errors.Is(err, em.ErrBudgetExceeded) {
		t.Errorf("want budget error, got %v", err)
	}
}

func TestRecordStackPushPop(t *testing.T) {
	dev, _ := newDev(t, 64)
	s, err := NewRecordStack(dev, em.CatPathStack, nil, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := make([]byte, 8)
	for i := 0; i < 100; i++ {
		binary.LittleEndian.PutUint64(rec, uint64(i))
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 99; i >= 0; i-- {
		if err := s.Pop(rec); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(rec); got != uint64(i) {
			t.Fatalf("pop %d: got %d", i, got)
		}
	}
	if err := s.Pop(rec); !errors.Is(err, ErrEmpty) {
		t.Errorf("pop empty = %v, want ErrEmpty", err)
	}
	if err := s.Peek(rec); !errors.Is(err, ErrEmpty) {
		t.Errorf("peek empty = %v, want ErrEmpty", err)
	}
}

func TestRecordStackPeekReplace(t *testing.T) {
	dev, _ := newDev(t, 32)
	s, _ := NewRecordStack(dev, em.CatPathStack, nil, 2, 4)
	defer s.Close()
	s.Push([]byte("aaaa"))
	s.Push([]byte("bbbb"))
	rec := make([]byte, 4)
	if err := s.Peek(rec); err != nil || string(rec) != "bbbb" {
		t.Fatalf("peek = %q, %v", rec, err)
	}
	if err := s.ReplaceTop([]byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	s.Pop(rec)
	if string(rec) != "BBBB" {
		t.Errorf("after replace, pop = %q", rec)
	}
	s.Peek(rec)
	if string(rec) != "aaaa" {
		t.Errorf("second record = %q", rec)
	}
}

func TestRecordStackValidation(t *testing.T) {
	dev, _ := newDev(t, 32)
	if _, err := NewRecordStack(dev, em.CatPathStack, nil, 2, 0); err == nil {
		t.Error("zero record size should fail")
	}
	if _, err := NewRecordStack(dev, em.CatPathStack, nil, 2, 33); err == nil {
		t.Error("record larger than block should fail")
	}
	if _, err := NewRecordStack(dev, em.CatPathStack, nil, 0, 4); err == nil {
		t.Error("zero resident window should fail")
	}
	s, _ := NewRecordStack(dev, em.CatPathStack, nil, 1, 4)
	defer s.Close()
	if err := s.Push([]byte("toolong!")); err == nil {
		t.Error("wrong-size push should fail")
	}
	if err := s.Pop(make([]byte, 3)); err == nil {
		t.Error("wrong-size pop should fail")
	}
}

// TestRecordStackFringePaging verifies the Lemma 4.11 behaviour: with two
// resident blocks, popping back into the previous block after a short
// excursion costs no I/O; a page-in happens only when more than two blocks
// were pushed above the block being returned to.
func TestRecordStackFringePaging(t *testing.T) {
	dev, stats := newDev(t, 32) // 4 records of 8 bytes per block
	s, _ := NewRecordStack(dev, em.CatPathStack, nil, 2, 8)
	defer s.Close()
	rec := make([]byte, 8)

	// Push 6 records: blocks 0 (recs 0-3) and 1 (recs 4-5) resident.
	for i := 0; i < 6; i++ {
		s.Push(rec)
	}
	if got := stats.IOs(em.CatPathStack); got != 0 {
		t.Fatalf("setup IOs = %d", got)
	}
	// Pop back into block 0: both blocks resident, no I/O.
	for i := 0; i < 3; i++ {
		s.Pop(rec)
	}
	if got := stats.IOs(em.CatPathStack); got != 0 {
		t.Errorf("short excursion cost %d IOs, want 0", got)
	}
	// Deep excursion: push 10 records (through block 3), evicting block 0.
	for i := 0; i < 10; i++ {
		s.Push(rec)
	}
	if w := stats.Writes(em.CatPathStack); w != 2 {
		t.Errorf("deep push evicted %d blocks, want 2", w)
	}
	// Pop all the way down: blocks 1 and 0 must be paged back in.
	for s.Len() > 0 {
		s.Pop(rec)
	}
	if r := stats.Reads(em.CatPathStack); r != 2 {
		t.Errorf("deep pop paged in %d blocks, want 2", r)
	}
}

// Property: ByteStack behaves like an in-memory byte slice under an
// arbitrary sequence of pushes, truncates and range reads.
func TestByteStackQuick(t *testing.T) {
	type op struct {
		Kind byte
		Arg  uint16
	}
	f := func(ops []op, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := em.NewDevice(em.NewMemBackend(), 24, nil)
		s, err := NewByteStack(dev, em.CatDataStack, nil, 1+rng.Intn(3))
		if err != nil {
			return false
		}
		defer s.Close()
		var ref []byte
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // push
				p := make([]byte, int(o.Arg)%97)
				rng.Read(p)
				if err := s.Push(p); err != nil {
					return false
				}
				ref = append(ref, p...)
			case 1: // truncate
				if len(ref) == 0 {
					continue
				}
				n := int(o.Arg) % (len(ref) + 1)
				if err := s.Truncate(int64(n)); err != nil {
					return false
				}
				ref = ref[:n]
			case 2: // read range
				off := 0
				if len(ref) > 0 {
					off = int(o.Arg) % (len(ref) + 1)
				}
				r, err := s.ReadRange(nil, int64(off))
				if err != nil {
					return false
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, ref[off:]) {
					return false
				}
			}
		}
		return s.Size() == int64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: RecordStack is LIFO-equivalent to an in-memory slice of records
// under random push/pop interleavings and tiny windows.
func TestRecordStackQuick(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := em.NewDevice(em.NewMemBackend(), 16, nil)
		s, err := NewRecordStack(dev, em.CatOutputStack, nil, 1, 6)
		if err != nil {
			return false
		}
		defer s.Close()
		var ref [][]byte
		rec := make([]byte, 6)
		for _, push := range ops {
			if push || len(ref) == 0 {
				p := make([]byte, 6)
				rng.Read(p)
				if err := s.Push(p); err != nil {
					return false
				}
				ref = append(ref, p)
			} else {
				if err := s.Pop(rec); err != nil {
					return false
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !bytes.Equal(rec, want) {
					return false
				}
			}
		}
		return s.Len() == int64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestByteStackSetResident(t *testing.T) {
	dev, stats := newDev(t, 16)
	budget := em.NewBudget(10)
	s, err := NewByteStack(dev, em.CatDataStack, budget, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Resident() != 4 || budget.InUse() != 4 {
		t.Fatalf("initial residency %d, grant %d", s.Resident(), budget.InUse())
	}
	payload := make([]byte, 60) // ~4 blocks: all resident, no eviction
	for i := range payload {
		payload[i] = byte(i)
	}
	s.Push(payload)
	if w := stats.Writes(em.CatDataStack); w != 0 {
		t.Fatalf("windowed pushes evicted %d blocks", w)
	}

	// Shrinking to 1 evicts the three older blocks (dirty -> written).
	if err := s.SetResident(1); err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 1 {
		t.Errorf("grant after shrink = %d", budget.InUse())
	}
	if w := stats.Writes(em.CatDataStack); w != 3 {
		t.Errorf("shrink evicted %d blocks, want 3", w)
	}

	// Growing back is free and re-grants.
	if err := s.SetResident(3); err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 3 {
		t.Errorf("grant after grow = %d", budget.InUse())
	}

	// Contents intact either way.
	r, _ := s.ReadRange(nil, 0)
	got, _ := io.ReadAll(r)
	r.Close()
	if !bytes.Equal(got, payload) {
		t.Error("contents corrupted across residency changes")
	}

	// Over-budget grow fails cleanly.
	if err := s.SetResident(11); !errors.Is(err, em.ErrBudgetExceeded) {
		t.Errorf("over-budget grow: %v", err)
	}
	if err := s.SetResident(0); err == nil {
		t.Error("zero residency should fail")
	}
}
