package em

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCategoryStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Categories() {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "category(") {
			t.Errorf("category %d has no name", int(c))
		}
		if seen[s] {
			t.Errorf("duplicate category name %q", s)
		}
		seen[s] = true
	}
}

func TestStatsAccumulation(t *testing.T) {
	s := NewStats()
	s.AddReads(CatInput, 3)
	s.AddWrites(CatOutput, 2)
	s.AddReads(CatInput, 1)
	if got := s.Reads(CatInput); got != 4 {
		t.Errorf("Reads(input) = %d, want 4", got)
	}
	if got := s.Writes(CatOutput); got != 2 {
		t.Errorf("Writes(output) = %d, want 2", got)
	}
	if got := s.TotalIOs(); got != 6 {
		t.Errorf("TotalIOs = %d, want 6", got)
	}
	if got := s.IOs(CatInput); got != 4 {
		t.Errorf("IOs(input) = %d, want 4", got)
	}
	snap := s.Snapshot()
	if snap["input"].Reads != 4 || snap["output"].Writes != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	if _, ok := snap["data-stack"]; ok {
		t.Error("Snapshot should omit zero categories")
	}
	s.Reset()
	if s.TotalIOs() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.AddReads(CatInput, 2)
	s.AddWrites(CatOutput, 1)
	str := s.String()
	for _, want := range []string{"input r=2", "output", "total=3"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String() = %q, missing %q", str, want)
		}
	}
}

func TestMemBackendZeroFill(t *testing.T) {
	b := NewMemBackend()
	if _, err := b.WriteAt([]byte("hello"), 100); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 10)
	if _, err := b.ReadAt(p, 98); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 'h', 'e', 'l', 'l', 'o', 0, 0, 0}
	if !bytes.Equal(p, want) {
		t.Errorf("ReadAt = %v, want %v", p, want)
	}
	if b.Len() != 105 {
		t.Errorf("Len = %d, want 105", b.Len())
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	b, err := NewFileBackend(t.TempDir() + "/scratch.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	data := []byte("external memory")
	if _, err := b.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, len(data))
	if _, err := b.ReadAt(p, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data) {
		t.Errorf("read back %q, want %q", p, data)
	}
	// Reads beyond EOF are zero-filled.
	q := make([]byte, 8)
	if _, err := b.ReadAt(q, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q, make([]byte, 8)) {
		t.Errorf("past-EOF read = %v, want zeros", q)
	}
}

func TestDeviceReadWrite(t *testing.T) {
	stats := NewStats()
	d := NewDevice(NewMemBackend(), 128, stats)
	id := d.AllocBlock()
	blk := make([]byte, 128)
	copy(blk, "block zero")
	if err := d.WriteBlock(CatScratch, id, blk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := d.ReadBlock(CatScratch, id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Error("block round trip mismatch")
	}
	if stats.Reads(CatScratch) != 1 || stats.Writes(CatScratch) != 1 {
		t.Errorf("stats = %v", stats.Snapshot())
	}
}

func TestDeviceErrors(t *testing.T) {
	d := NewDevice(NewMemBackend(), 64, nil)
	blk := make([]byte, 64)
	if err := d.ReadBlock(CatScratch, 0, blk); err == nil {
		t.Error("read of unallocated block should fail")
	}
	if err := d.WriteBlock(CatScratch, 5, blk); err == nil {
		t.Error("write of unallocated block should fail")
	}
	id := d.AllocBlock()
	if err := d.WriteBlock(CatScratch, id, blk[:10]); err == nil {
		t.Error("short buffer should fail")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(CatScratch, id, blk); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestBudgetGrantRelease(t *testing.T) {
	b := NewBudget(4)
	if err := b.Grant(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Grant(2); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("overcommit = %v, want ErrBudgetExceeded", err)
	}
	if b.InUse() != 3 || b.Free() != 1 {
		t.Errorf("InUse=%d Free=%d", b.InUse(), b.Free())
	}
	b.Release(2)
	if err := b.Grant(3); err != nil {
		t.Fatal(err)
	}
	if b.Peak() != 4 {
		t.Errorf("Peak = %d, want 4", b.Peak())
	}
	if b.Total() != 4 {
		t.Errorf("Total = %d, want 4", b.Total())
	}
}

func TestBudgetPanics(t *testing.T) {
	b := NewBudget(2)
	mustPanic(t, "over-release", func() { b.Release(1) })
	mustPanic(t, "negative grant", func() { _ = b.Grant(-1) })
	mustPanic(t, "zero budget", func() { NewBudget(0) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStreamRoundTrip(t *testing.T) {
	d := NewDevice(NewMemBackend(), 32, nil)
	s := NewStream(d, CatMergeRun)
	budget := NewBudget(8)
	w, err := s.NewWriter(budget)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		chunk := make([]byte, rng.Intn(70))
		rng.Read(chunk)
		want.Write(chunk)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 0 {
		t.Errorf("writer leaked %d budget blocks", budget.InUse())
	}
	if s.Size() != int64(want.Len()) {
		t.Fatalf("Size = %d, want %d", s.Size(), want.Len())
	}
	r, err := s.NewReader(budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("stream round trip mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if budget.InUse() != 0 {
		t.Errorf("reader leaked %d budget blocks", budget.InUse())
	}
}

func TestStreamReadFromOffset(t *testing.T) {
	d := NewDevice(NewMemBackend(), 16, nil)
	s := NewStream(d, CatRunRead)
	w, _ := s.NewWriter(nil)
	payload := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	w.Write(payload)
	w.Close()
	for _, off := range []int64{0, 1, 15, 16, 17, 35, 36} {
		r, err := s.NewReader(nil, off)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		got, _ := io.ReadAll(r)
		if string(got) != string(payload[off:]) {
			t.Errorf("offset %d: got %q, want %q", off, got, payload[off:])
		}
		r.Close()
	}
	if _, err := s.NewReader(nil, 37); err == nil {
		t.Error("out-of-range offset should fail")
	}
	if _, err := s.NewReader(nil, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

// TestConcurrentReadersOneStream opens eight readers on one sealed stream
// at different offsets and drains them concurrently: each must see exactly
// the stream's bytes from its offset on, and every frame must be back in
// the pool afterwards.
func TestConcurrentReadersOneStream(t *testing.T) {
	const bs = 96
	payload := make([]byte, 40*bs+11)
	for i := range payload {
		payload[i] = byte(5 + i*7)
	}
	dev := NewDevice(NewMemBackend(), bs, nil)
	defer dev.Close()

	s := NewStream(dev, CatMergeRun)
	w, _ := s.NewWriter(nil)
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * int64(len(payload)) / readers
			r, err := s.NewReader(nil, off)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload[off:]) {
				errs <- fmt.Errorf("reader %d: bytes diverge from offset %d", i, off)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live := dev.Frames().Live(); live != 0 {
		t.Fatalf("%d frames live after all readers closed", live)
	}
}

func TestStreamWriterRules(t *testing.T) {
	d := NewDevice(NewMemBackend(), 16, nil)
	s := NewStream(d, CatScratch)
	if _, err := s.NewReader(nil, 0); err == nil {
		t.Error("reading an unsealed stream should fail")
	}
	w, _ := s.NewWriter(nil)
	if _, err := s.NewWriter(nil); err == nil {
		// A second writer while the first has flushed nothing is caught
		// only after the first block lands; writing then sealing makes the
		// state observable, so check the post-seal rule instead below.
		t.Log("second writer before first flush is tolerated")
	}
	w.Write([]byte("0123456789abcdef____"))
	w.Close()
	if _, err := s.NewWriter(nil); err == nil {
		t.Error("writer on sealed stream should fail")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestStreamReadByte(t *testing.T) {
	d := NewDevice(NewMemBackend(), 8, nil)
	s := NewStream(d, CatScratch)
	w, _ := s.NewWriter(nil)
	w.Write([]byte("xyz"))
	w.Close()
	r, _ := s.NewReader(nil, 0)
	defer r.Close()
	for _, want := range []byte("xyz") {
		b, err := r.ReadByte()
		if err != nil || b != want {
			t.Fatalf("ReadByte = %q, %v; want %q", b, err, want)
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Errorf("ReadByte at EOF = %v, want io.EOF", err)
	}
}

func TestStreamIOCounting(t *testing.T) {
	stats := NewStats()
	d := NewDevice(NewMemBackend(), 64, stats)
	s := NewStream(d, CatMergeRun)
	w, _ := s.NewWriter(nil)
	w.Write(make([]byte, 200)) // 3 blocks wanted (2 full + partial)
	w.Close()
	if got := stats.Writes(CatMergeRun); got != 4 {
		// 200 bytes over 64-byte blocks = 3 full flushes at 64,128,192
		// would be wrong: 200/64 = 3 full (192 bytes) + 8-byte tail = 4.
		t.Errorf("writes = %d, want 4", got)
	}
	r, _ := s.NewReader(nil, 0)
	io.ReadAll(r)
	r.Close()
	if got := stats.Reads(CatMergeRun); got != 4 {
		t.Errorf("reads = %d, want 4", got)
	}
}

func TestCountingReader(t *testing.T) {
	stats := NewStats()
	d := NewDevice(NewMemBackend(), 100, stats)
	src := strings.NewReader(strings.Repeat("a", 250))
	cr := NewCountingReader(src, d, CatInput)
	defer cr.Close()
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 250 {
		t.Fatalf("read %d bytes", len(got))
	}
	if stats.Reads(CatInput) != 2 {
		t.Errorf("pre-Finish reads = %d, want 2", stats.Reads(CatInput))
	}
	cr.Finish()
	if stats.Reads(CatInput) != 3 {
		t.Errorf("post-Finish reads = %d, want 3", stats.Reads(CatInput))
	}
	if cr.BytesRead() != 250 {
		t.Errorf("BytesRead = %d", cr.BytesRead())
	}
	cr.Finish() // idempotent
	if stats.Reads(CatInput) != 3 {
		t.Error("Finish not idempotent")
	}
}

func TestCountingReaderByteAtATime(t *testing.T) {
	stats := NewStats()
	d := NewDevice(NewMemBackend(), 4, stats)
	cr := NewCountingReader(strings.NewReader("hello!"), d, CatInput)
	defer cr.Close()
	for i := 0; i < 6; i++ {
		if _, err := cr.ReadByte(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cr.ReadByte(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	cr.Finish()
	if stats.Reads(CatInput) != 2 {
		t.Errorf("reads = %d, want 2", stats.Reads(CatInput))
	}
}

func TestCountingWriter(t *testing.T) {
	stats := NewStats()
	d := NewDevice(NewMemBackend(), 100, stats)
	var sink bytes.Buffer
	cw := NewCountingWriter(&sink, d, CatOutput)
	defer cw.Close()
	cw.Write(make([]byte, 150))
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats.Writes(CatOutput) != 2 {
		t.Errorf("writes = %d, want 2", stats.Writes(CatOutput))
	}
	if sink.Len() != 150 || cw.BytesWritten() != 150 {
		t.Errorf("sink=%d bytes, counted=%d", sink.Len(), cw.BytesWritten())
	}
}

func TestFaultBackend(t *testing.T) {
	inner := NewMemBackend()
	fb := NewFaultBackend(inner)
	boom := errors.New("boom")
	fb.FailWriteAfter(2, boom)
	p := make([]byte, 4)
	if _, err := fb.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt(p, 4); !errors.Is(err, boom) {
		t.Errorf("second write = %v, want boom", err)
	}
	if _, err := fb.WriteAt(p, 8); err != nil {
		t.Errorf("third write = %v, want nil (disarmed)", err)
	}
	fb.FailReadAfter(1, boom)
	if _, err := fb.ReadAt(p, 0); !errors.Is(err, boom) {
		t.Errorf("read = %v, want boom", err)
	}
	if _, err := fb.ReadAt(p, 0); err != nil {
		t.Errorf("read after disarm = %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{BlockSize: 4096, MemBlocks: 16}, true},
		{Config{BlockSize: 64, MemBlocks: 5}, true},
		{Config{BlockSize: 32, MemBlocks: 16}, false},
		{Config{BlockSize: 4096, MemBlocks: 4}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestEnvLifecycle(t *testing.T) {
	env, err := NewEnv(Config{BlockSize: 256, MemBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if env.Dev.BlockSize() != 256 || env.Budget.Total() != 8 {
		t.Error("env parameters not propagated")
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}

	env2, err := NewEnv(Config{BlockSize: 256, MemBlocks: 8, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	id := env2.Dev.AllocBlock()
	blk := make([]byte, 256)
	if err := env2.Dev.WriteBlock(CatScratch, id, blk); err != nil {
		t.Fatal(err)
	}
	if err := env2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	one := m.Seconds(1, 64<<10)
	if one <= 0.005 || one > 0.01 {
		t.Errorf("one 64KiB I/O = %gs, want in (5ms, 10ms]", one)
	}
	if got := m.Seconds(100, 64<<10); got != one*100 {
		t.Errorf("cost not linear in I/O count")
	}
}

// Property: a stream written in arbitrary chunkings reads back identically
// from any valid offset.
func TestStreamProperty(t *testing.T) {
	f := func(data []byte, blockPow uint8, offSeed uint16) bool {
		blockSize := 8 << (blockPow % 6) // 8..256
		d := NewDevice(NewMemBackend(), blockSize, nil)
		s := NewStream(d, CatScratch)
		w, _ := s.NewWriter(nil)
		// Write in pseudo-random chunk sizes.
		rng := rand.New(rand.NewSource(int64(offSeed)))
		rest := data
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			w.Write(rest[:n])
			rest = rest[n:]
		}
		w.Close()
		if s.Size() != int64(len(data)) {
			return false
		}
		off := int64(0)
		if len(data) > 0 {
			off = int64(int(offSeed) % (len(data) + 1))
		}
		r, err := s.NewReader(nil, off)
		if err != nil {
			return false
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data[off:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
