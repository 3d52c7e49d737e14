package em

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"
	"time"
)

const hbs = 256 // block size used throughout the hardening tests

func fillBlock(seed byte) []byte {
	p := make([]byte, hbs)
	for i := range p {
		p[i] = seed + byte(i)
	}
	return p
}

func TestChecksumRoundTrip(t *testing.T) {
	stats := NewStats()
	cb := NewChecksumBackend(NewMemBackend(), hbs, stats)
	blk := fillBlock(7)
	if _, err := cb.WriteAtCat(blk, 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, hbs)
	if _, err := cb.ReadAtCat(got, 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Error("checksummed block round trip mismatch")
	}
	if stats.TotalChecksumFailures() != 0 {
		t.Errorf("unexpected checksum failures: %d", stats.TotalChecksumFailures())
	}
}

func TestChecksumUnwrittenBlockReadsZeros(t *testing.T) {
	cb := NewChecksumBackend(NewMemBackend(), hbs, nil)
	got := fillBlock(1) // non-zero, must be overwritten
	if _, err := cb.ReadAtCat(got, 3*hbs, CatScratch); err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Error("unwritten block did not read back as zeros")
	}
}

func TestChecksumDetectsBitRot(t *testing.T) {
	stats := NewStats()
	inner := NewMemBackend()
	cb := NewChecksumBackend(inner, hbs, stats)
	if _, err := cb.WriteAtCat(fillBlock(9), 0, CatRunRead); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit at rest, beneath the checksum layer.
	var b [1]byte
	if _, err := inner.ReadAt(b[:], 10); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := inner.WriteAt(b[:], 10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, hbs)
	_, err := cb.ReadAtCat(got, 0, CatRunRead)
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("bit rot read error = %v, want ErrCorruptBlock", err)
	}
	var ce *CorruptBlockError
	if !errors.As(err, &ce) || ce.Block != 0 {
		t.Errorf("error %v did not identify block 0", err)
	}
	if stats.ChecksumFailures(CatRunRead) != 1 {
		t.Errorf("checksum failures under run-read = %d, want 1", stats.ChecksumFailures(CatRunRead))
	}
}

func TestChecksumDetectsTornWrite(t *testing.T) {
	inner := NewMemBackend()
	cb := NewChecksumBackend(inner, hbs, nil)
	blk := fillBlock(3)
	if _, err := cb.WriteAtCat(blk, 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	// Tear the record: zero out its tail including the trailer.
	zeros := make([]byte, hbs/2+checksumTrailerLen)
	if _, err := inner.WriteAt(zeros, int64(hbs/2)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, hbs)
	if _, err := cb.ReadAtCat(got, 0, CatScratch); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("torn write read error = %v, want ErrCorruptBlock", err)
	}
}

func TestChecksumDetectsTornWriteToZeros(t *testing.T) {
	// The nastiest case: a write was issued but nothing landed, so the
	// block reads back as the same zeros an unwritten block would — only
	// the written-set can tell them apart.
	inner := NewMemBackend()
	cb := NewChecksumBackend(inner, hbs, nil)
	if _, err := cb.WriteAtCat(fillBlock(5), 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, hbs+checksumTrailerLen)
	if _, err := inner.WriteAt(zeros, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, hbs)
	if _, err := cb.ReadAtCat(got, 0, CatScratch); !errors.Is(err, ErrCorruptBlock) {
		t.Fatal("write-then-all-zeros should be flagged corrupt, not served as zeros")
	}
}

func TestChecksumDetectsLostRewrite(t *testing.T) {
	// A rewrite that lands none of its new bytes leaves the previous
	// record intact, trailer included: the checksum alone would serve the
	// old contents as if the rewrite never happened.
	inner := NewMemBackend()
	cb := NewChecksumBackend(inner, hbs, nil)
	if _, err := cb.WriteAtCat(fillBlock(1), 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	old := make([]byte, hbs+checksumTrailerLen)
	if _, err := inner.ReadAt(old, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.WriteAtCat(fillBlock(2), 0, CatScratch); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, hbs)
	if _, err := cb.ReadAtCat(got, 0, CatScratch); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("lost rewrite read error = %v, want ErrCorruptBlock", err)
	}
}

func TestChecksumRejectsUnalignedAccess(t *testing.T) {
	cb := NewChecksumBackend(NewMemBackend(), hbs, nil)
	if _, err := cb.ReadAtCat(make([]byte, hbs), 13, CatScratch); err == nil {
		t.Error("unaligned read should fail")
	}
	if _, err := cb.WriteAtCat(make([]byte, hbs-1), 0, CatScratch); err == nil {
		t.Error("short-buffer write should fail")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{MarkTransient(errors.New("stall")), ClassTransient},
		{fmt.Errorf("wrapped: %w", MarkTransient(errors.New("stall"))), ClassTransient},
		{syscall.EINTR, ClassTransient},
		{fmt.Errorf("op: %w", syscall.EAGAIN), ClassTransient},
		{&CorruptBlockError{Block: 3, Reason: "crc"}, ClassCorrupt},
		{fmt.Errorf("read: %w", &CorruptBlockError{Block: 1}), ClassCorrupt},
		{errors.New("disk on fire"), ClassPermanent},
		{io.EOF, ClassPermanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if IsTransient(nil) {
		t.Error("nil must not be transient")
	}
	if !IsCorrupt(&CorruptBlockError{}) {
		t.Error("CorruptBlockError must be corrupt")
	}
}

// flakyBackend fails the first n operations with err, then succeeds.
type flakyBackend struct {
	Backend
	failLeft int
	err      error
}

func (f *flakyBackend) ReadAt(p []byte, off int64) (int, error) {
	if f.failLeft > 0 {
		f.failLeft--
		return 0, f.err
	}
	return f.Backend.ReadAt(p, off)
}

func (f *flakyBackend) WriteAt(p []byte, off int64) (int, error) {
	if f.failLeft > 0 {
		f.failLeft--
		return 0, f.err
	}
	return f.Backend.WriteAt(p, off)
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	stats := NewStats()
	flaky := &flakyBackend{Backend: NewMemBackend(), failLeft: 2, err: MarkTransient(errors.New("stall"))}
	rb := NewRetryBackend(flaky, RetryPolicy{MaxRetries: 3}, stats)
	blk := fillBlock(11)
	if _, err := rb.WriteAtCat(blk, 0, CatDataStack); err != nil {
		t.Fatalf("write should have been retried to success: %v", err)
	}
	if got := stats.Retries(CatDataStack); got != 2 {
		t.Errorf("retries under data-stack = %d, want 2", got)
	}
	got := make([]byte, hbs)
	if _, err := rb.ReadAtCat(got, 0, CatDataStack); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Error("retried write round trip mismatch")
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	stats := NewStats()
	flaky := &flakyBackend{Backend: NewMemBackend(), failLeft: 10, err: MarkTransient(errors.New("stall"))}
	rb := NewRetryBackend(flaky, RetryPolicy{MaxRetries: 2}, stats)
	_, err := rb.ReadAtCat(make([]byte, hbs), 0, CatScratch)
	if !IsTransient(err) {
		t.Fatalf("exhausted retry should surface the transient error, got %v", err)
	}
	if got := stats.Retries(CatScratch); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestRetryIgnoresPermanentErrors(t *testing.T) {
	stats := NewStats()
	flaky := &flakyBackend{Backend: NewMemBackend(), failLeft: 5, err: errors.New("controller gone")}
	rb := NewRetryBackend(flaky, RetryPolicy{MaxRetries: 3}, stats)
	if _, err := rb.ReadAtCat(make([]byte, hbs), 0, CatScratch); err == nil {
		t.Fatal("permanent error should surface")
	}
	if got := stats.TotalRetries(); got != 0 {
		t.Errorf("permanent error consumed %d retries, want 0", got)
	}
}

func TestRetryCorruptReadsPolicy(t *testing.T) {
	corrupt := &flakyBackend{Backend: NewMemBackend(), failLeft: 1, err: &CorruptBlockError{Block: 0, Reason: "in transit"}}
	rb := NewRetryBackend(corrupt, RetryPolicy{MaxRetries: 2, RetryCorruptReads: true}, nil)
	if _, err := rb.ReadAtCat(make([]byte, hbs), 0, CatScratch); err != nil {
		t.Fatalf("in-transit corruption should clear on re-read: %v", err)
	}
	// Writes never retry on corruption.
	corrupt = &flakyBackend{Backend: NewMemBackend(), failLeft: 1, err: &CorruptBlockError{Block: 0}}
	rb = NewRetryBackend(corrupt, RetryPolicy{MaxRetries: 2, RetryCorruptReads: true}, nil)
	if _, err := rb.WriteAtCat(make([]byte, hbs), 0, CatScratch); !IsCorrupt(err) {
		t.Fatalf("corrupt write error should surface immediately, got %v", err)
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	policy := RetryPolicy{
		MaxRetries: 4,
		BaseDelay:  time.Millisecond,
		MaxDelay:   4 * time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	flaky := &flakyBackend{Backend: NewMemBackend(), failLeft: 10, err: MarkTransient(errors.New("stall"))}
	rb := NewRetryBackend(flaky, policy, nil)
	rb.ReadAtCat(make([]byte, hbs), 0, CatScratch)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestChaosBackendDeterminism(t *testing.T) {
	run := func() (map[string]int64, []error) {
		cfg := ChaosConfig{
			Seed:               1234,
			ReadTransientProb:  0.2,
			WriteTransientProb: 0.2,
			WriteBitFlipProb:   0.1,
			TornWriteProb:      0.1,
		}
		cb := NewChaosBackend(NewMemBackend(), cfg)
		var errs []error
		blk := fillBlock(1)
		got := make([]byte, hbs)
		for i := 0; i < 200; i++ {
			_, err := cb.WriteAt(blk, int64(i%8)*hbs)
			errs = append(errs, err)
			_, err = cb.ReadAt(got, int64(i%8)*hbs)
			errs = append(errs, err)
		}
		return cb.Injected(), errs
	}
	inj1, errs1 := run()
	inj2, errs2 := run()
	if len(inj1) == 0 {
		t.Fatal("chaos injected nothing at these probabilities")
	}
	if fmt.Sprint(inj1) != fmt.Sprint(inj2) {
		t.Errorf("injection counts differ across identical seeded runs: %v vs %v", inj1, inj2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("error sequence diverged at op %d", i)
		}
	}
}

func TestChaosMaxConsecutiveBoundsFaults(t *testing.T) {
	cfg := ChaosConfig{Seed: 9, ReadTransientProb: 1.0, MaxConsecutive: 3}
	cb := NewChaosBackend(NewMemBackend(), cfg)
	got := make([]byte, hbs)
	fails := 0
	for i := 0; i < 4; i++ {
		if _, err := cb.ReadAt(got, 0); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("consecutive faults = %d, want exactly 3 before the forced success", fails)
	}
}

// TestHardenedEnvSameIOCounts asserts the acceptance criterion that
// checksums+retry leave the fault-free block-transfer counters unchanged:
// hardening must not cost measurable I/O on a healthy device.
func TestHardenedEnvSameIOCounts(t *testing.T) {
	runOnce := func(cfg Config) int64 {
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		s := NewStream(env.Dev, CatScratch)
		w, err := s.NewWriter(env.Budget)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("spill"), 2000)
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := s.NewReader(env.Budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
		return env.Stats.TotalIOs()
	}
	base := Config{BlockSize: 512, MemBlocks: 8}
	hardened := base
	hardened.VerifyChecksums = true
	hardened.Retry = RetryPolicy{MaxRetries: 3, RetryCorruptReads: true}
	if plain, hard := runOnce(base), runOnce(hardened); plain != hard {
		t.Errorf("hardened env cost %d I/Os, plain %d — hardening must be free of block transfers", hard, plain)
	}
}

func TestEnvChainClosesThroughHardening(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{BlockSize: 512, MemBlocks: 8, ScratchDir: dir,
		VerifyChecksums: true, Retry: RetryPolicy{MaxRetries: 2}}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := env.Dev.AllocBlock()
	blk := make([]byte, 512)
	if err := env.Dev.WriteBlock(CatScratch, id, blk); err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := osReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("scratch file leaked through the hardened close chain: %v", ents)
	}
}

// osReadDir lists dir's entry names (tiny helper keeping the os import
// localized).
func osReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}
