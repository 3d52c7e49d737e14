// Package runstore manages NEXSORT's sorted runs: the on-device streams
// that hold sorted subtrees, connected into a tree by run-pointer tokens
// (Figure 3 of the paper). Each subtree sort writes one run of encoded
// tokens through a Writer; the output phase walks the tree through Readers
// that return views of the tokens and can start at any byte offset, which
// is how the output location stack resumes a parent run after a detour
// into a child run.
package runstore

import (
	"fmt"
	"io"
	"sync"

	"nexsort/internal/em"
	"nexsort/internal/xmltok"
)

// RunID identifies a sorted run within its Store.
type RunID int64

// Store is a collection of sorted runs on one device.
type Store struct {
	dev *em.Device

	mu   sync.Mutex
	runs []*em.Stream
}

// New creates an empty store over dev.
func New(dev *em.Device) *Store { return &Store{dev: dev} }

// Len returns the number of runs created so far (x in the paper's
// analysis; Lemma 4.7 bounds it by O(N/t)).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// TotalBlocks returns the number of device blocks occupied by all runs
// (Lemma 4.8 bounds it by O(N/B)).
func (s *Store) TotalBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, r := range s.runs {
		total += r.Blocks()
	}
	return total
}

// Size returns the byte size of run id.
func (s *Store) Size(id RunID) (int64, error) {
	run, err := s.run(id)
	if err != nil {
		return 0, err
	}
	return run.Size(), nil
}

func (s *Store) run(id RunID) (*em.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || int(id) >= len(s.runs) {
		return nil, fmt.Errorf("runstore: unknown run %d", id)
	}
	return s.runs[id], nil
}

// Create opens a new run for writing, charging its I/O to cat. One block
// of main memory is granted from budget for the write buffer (nil skips
// budgeting). The run's ID is assigned immediately so the caller can embed
// it in a run-pointer token while still writing.
func (s *Store) Create(cat em.Category, budget *em.Budget) (RunID, *Writer, error) {
	stream := em.NewStream(s.dev, cat)
	w, err := stream.NewWriter(budget)
	if err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	id := RunID(len(s.runs))
	s.runs = append(s.runs, stream)
	s.mu.Unlock()
	return id, &Writer{w: w}, nil
}

// Open opens run id for reading tokens starting at byte offset off,
// charging reads to the run's write category.
func (s *Store) Open(id RunID, budget *em.Budget, off int64) (*Reader, error) {
	run, err := s.run(id)
	if err != nil {
		return nil, err
	}
	sr, err := run.NewReader(budget, off)
	if err != nil {
		return nil, err
	}
	return &Reader{sr: sr}, nil
}

// OpenCat is Open with reads charged to an explicit category: the output
// phase charges its run reads to em.CatRunRead (Lemma 4.12) even though the
// runs were written under the subtree-sort category.
func (s *Store) OpenCat(id RunID, budget *em.Budget, off int64, cat em.Category) (*Reader, error) {
	run, err := s.run(id)
	if err != nil {
		return nil, err
	}
	sr, err := run.NewReaderCat(budget, off, cat)
	if err != nil {
		return nil, err
	}
	return &Reader{sr: sr}, nil
}

// Writer appends encoded tokens to a run.
type Writer struct {
	w      *em.StreamWriter
	tokens int64
}

// Append appends one token; tok holds exactly its encoding.
func (w *Writer) Append(tok []byte) error {
	if _, err := w.w.Write(tok); err != nil {
		return err
	}
	w.tokens++
	return nil
}

// Tokens returns the number of tokens written so far.
func (w *Writer) Tokens() int64 { return w.tokens }

// Close seals the run and releases the buffer grant.
func (w *Writer) Close() error { return w.w.Close() }

// Reader streams tokens out of a run as views, holding one token decoder
// for the whole run.
type Reader struct {
	sr  *em.StreamReader
	dec xmltok.Decoder
}

// Next returns a view of the next token, io.EOF at the end of the run. The
// view is valid until the next call.
func (r *Reader) Next() (*xmltok.Encoded, error) { return r.dec.ReadEncoded(r.sr) }

// Offset returns the byte offset of the next token — the resume location
// pushed onto the output location stack when a run pointer is followed.
func (r *Reader) Offset() int64 { return r.sr.Offset() }

// Close releases the reader's buffer grant.
func (r *Reader) Close() error { return r.sr.Close() }

// Tree describes the run-pointer tree for inspection (Figure 3): the runs
// referenced by run id, with the IDs of the child runs its pointers lead
// to, in the order encountered.
type Tree struct {
	Root     RunID
	Children map[RunID][]RunID
}

// InspectTree walks the run tree from root without budget accounting; it
// is a test and debugging aid, not part of the sorting pipeline.
func (s *Store) InspectTree(root RunID) (*Tree, error) {
	t := &Tree{Root: root, Children: map[RunID][]RunID{}}
	var walk func(id RunID) error
	walk = func(id RunID) error {
		if _, seen := t.Children[id]; seen {
			return fmt.Errorf("runstore: run %d referenced twice", id)
		}
		t.Children[id] = []RunID{}
		r, err := s.Open(id, nil, 0)
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			tok, err := r.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if tok.Kind() == xmltok.KindRunPtr {
				child := RunID(tok.Run())
				t.Children[id] = append(t.Children[id], child)
				if err := walk(child); err != nil {
					return err
				}
			}
		}
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return t, nil
}
