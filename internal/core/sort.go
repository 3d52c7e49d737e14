package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"nexsort/internal/compact"
	"nexsort/internal/em"
	"nexsort/internal/keys"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
	"nexsort/internal/xstack"
)

// pathRec is one path-stack record: the data-stack start location of an
// open element (Figure 4's l), plus the bookkeeping graceful degeneration
// needs — the start of the element's not-yet-cut child region, and the
// number of child sequence numbers already handed out by earlier cuts.
type pathRec struct {
	start     int64
	cutMark   int64
	childBase int64
}

// pathRecSize is the fixed record size on the path stack.
const pathRecSize = 24

func (p pathRec) marshal(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(p.start))
	binary.LittleEndian.PutUint64(dst[8:], uint64(p.cutMark))
	binary.LittleEndian.PutUint64(dst[16:], uint64(p.childBase))
}

func unmarshalPathRec(src []byte) pathRec {
	return pathRec{
		start:     int64(binary.LittleEndian.Uint64(src[0:])),
		cutMark:   int64(binary.LittleEndian.Uint64(src[8:])),
		childBase: int64(binary.LittleEndian.Uint64(src[16:])),
	}
}

// sorter carries the state of one NEXSORT run.
type sorter struct {
	env       *em.Env
	opts      Options
	crit      *keys.Criterion
	threshold int64

	data  *xstack.ByteStack
	path  *xstack.RecordStack
	spill *xstack.RecordStack
	annot *keys.Annotator
	store *runstore.Store

	// dict/enc compact tokens entering the working structures when
	// Options.Compact is set; the output phase holds the matching
	// decoder. The dictionary is vocabulary-sized and lives in memory.
	dict *compact.Dictionary
	enc  *compact.Encoder

	// incomplete holds, per open-element depth (1-based path-stack
	// length at push time), the incomplete sorted runs cut by graceful
	// degeneration. Like the paper's sketch of the optimization, the
	// handles are bookkeeping, not data; the runs themselves are on disk.
	incomplete map[int][]*em.Stream

	// deferred holds the merges graceful degeneration leaves to the output
	// phase; leads marks the open element depths whose bytes or runs lead
	// to a deferred merge, directly or through runs. Both are bookkeeping
	// like incomplete: handles and flags.
	deferred []deferredMerge
	leads    map[int]bool

	// cutCap is the degeneration trigger: when the deepest open element's
	// uncut child region reaches this many bytes, it is cut into an
	// incomplete sorted run. It is sized so the region always fits in the
	// data stack's resident window — the cut sorts memory-resident bytes.
	cutCap int64

	// par is the background-worker state for dispatched sibling-subtree
	// sorts; see parallel.go for the concurrency and determinism rules.
	par parState

	report  *Report
	encBuf  []byte
	recBuf  []byte
	pathBuf []byte
}

// Sort runs NEXSORT: it reads the XML document from in and writes the
// fully (or depth-limited) sorted document to out, using the block size,
// memory budget and scratch device of env. The returned report carries the
// cost breakdown of Section 4.2.
func Sort(env *em.Env, in io.Reader, out io.Writer, opts Options) (*Report, error) {
	crit, threshold, err := opts.validate(env)
	if err != nil {
		return nil, err
	}
	s := &sorter{
		env:        env,
		opts:       opts,
		crit:       crit,
		threshold:  int64(threshold),
		store:      runstore.New(env.Dev),
		incomplete: map[int][]*em.Stream{},
		leads:      map[int]bool{},
		report:     &Report{Threshold: threshold},
		pathBuf:    make([]byte, pathRecSize),
	}
	if opts.Compact {
		s.dict = compact.NewDictionary()
		s.enc = compact.NewEncoder(s.dict)
	}
	s.par.pool = env.Pool()

	if err := s.sortDocument(in, out); err != nil {
		return nil, err
	}
	s.report.RunBlocks = s.store.TotalBlocks()
	s.report.ScratchBlocks = env.Dev.Allocated()
	s.report.IOs = env.Stats.Snapshot()
	return s.report, nil
}

// docRoot is what the sorting phase leaves the output phase. In the
// paper's layout the root was sorted into a run at its end tag, as Figure 4
// has it. In the default layout the root is still on the data stack, and
// the output phase sorts it straight into the output once the scan has
// ended.
type docRoot struct {
	run   runstore.RunID // the root run; -1 when the root streams
	start int64          // the root's data-stack start location
	end   []byte         // the root's encoded end tag
	leads bool           // as sorter.leads, for the root
}

// sortDocument runs both phases of Figure 4 over one data stack, which
// lives until the default layout's root has been sorted out of it.
func (s *sorter) sortDocument(in io.Reader, out io.Writer) (err error) {
	budget := s.env.Budget

	// The data stack's resident window: by default the sort area, so that
	// an accumulating flat child list is cut into an incomplete run while
	// still memory-resident instead of riding the stack to disk and back,
	// or one block in the paper's layout.
	dataResident := 1
	if !s.opts.PaperLayout {
		// Nearly all of the budget accumulates children in the resident
		// window, exactly like external merge sort filling memory before
		// cutting an initial run; when incomplete runs are merged, the
		// window is lent to the merge (SetResident in sortInto), so the
		// merge enjoys the same fan-in merge sort would.
		dataResident = budget.Total() - 8
		s.cutCap = int64(dataResident-1) * int64(s.env.Conf.BlockSize)
	}
	s.data, err = xstack.NewByteStack(s.env.Dev, em.CatDataStack, budget, dataResident)
	if err != nil {
		return err
	}
	defer s.data.Close()
	// Dispatched subtree sorts may hold blocks lent from the window, so
	// they are drained — and the window regrown — before it closes. On
	// error the workers must finish releasing their blocks before the
	// caller inspects the budget (no leak, no double release).
	defer func() {
		if derr := s.drainWorkers(); err == nil {
			err = derr
		}
	}()
	root, err := s.sortingPhase(in)
	if err != nil {
		return err
	}
	// The output phase reads the runs, so every dispatched sort must have
	// sealed its run; the root's sort also sizes itself by Budget.Free().
	if err := s.drainWorkers(); err != nil {
		return err
	}
	return s.outputPhase(root, out)
}

// sortingPhase is lines 1-12 of Figure 4. The path stack, the
// ordering-expression spill stack and the input buffer live only as long
// as the scan, so their blocks are free again when the output phase starts.
func (s *sorter) sortingPhase(in io.Reader) (root *docRoot, err error) {
	budget := s.env.Budget

	// Fixed structures beside the data stack: 2 path-stack blocks, 2
	// ordering-expression spill blocks and 1 input buffer block.
	s.path, err = xstack.NewRecordStack(s.env.Dev, em.CatPathStack, budget, 2, pathRecSize)
	if err != nil {
		return nil, err
	}
	defer s.path.Close()
	s.spill, err = xstack.NewRecordStack(s.env.Dev, em.CatPathStack, budget, 2, s.crit.StateSize())
	if err != nil {
		return nil, err
	}
	defer s.spill.Close()
	s.annot = keys.NewAnnotator(s.crit, s.spill)

	if err := budget.Grant(1); err != nil {
		return nil, fmt.Errorf("core: input buffer: %w", err)
	}
	defer budget.Release(1)

	// The reader's frame is the input buffer block: the deferred Close
	// returns it before the deferred Release returns the block.
	cr := em.NewCountingReader(in, s.env.Dev, em.CatInput)
	defer cr.Close()
	parser := xmltok.NewParser(cr, xmltok.DefaultParserOptions())
	var stamper *orderStamper
	if s.opts.RecordOrder != "" {
		stamper = newOrderStamper(s.opts.RecordOrder)
	}

	// Every token moves as its encoding: the parser's view, stamped,
	// annotated and compacted by stages that each append a new encoding
	// only when they change the token, is pushed as it stands.
	for {
		tok, err := parser.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if stamper != nil {
			if tok, err = stamper.stamp(tok); err != nil {
				return nil, err
			}
		}
		if tok, err = s.annot.Annotate(tok); err != nil {
			return nil, err
		}
		if s.enc != nil {
			// Ordering keys were evaluated on the original names above;
			// only the stored representation is compacted.
			if tok, err = s.enc.Encode(tok); err != nil {
				return nil, err
			}
		}

		switch tok.Kind() {
		case xmltok.KindStart:
			s.report.Elements++
			if d := s.annot.Depth(); d > s.report.Height {
				s.report.Height = d
			}
			rec := pathRec{start: s.data.Size()}
			if err := s.pushToken(tok.Bytes()); err != nil {
				return nil, err
			}
			rec.cutMark = s.data.Size()
			rec.marshal(s.pathBuf)
			if err := s.path.Push(s.pathBuf); err != nil {
				return nil, err
			}

		case xmltok.KindText:
			s.report.TextNodes++
			if err := s.pushToken(tok.Bytes()); err != nil {
				return nil, err
			}
			if err := s.maybeCutIncomplete(); err != nil {
				return nil, err
			}

		case xmltok.KindEnd:
			if err := s.path.Pop(s.pathBuf); err != nil {
				return nil, err
			}
			rec := unmarshalPathRec(s.pathBuf)
			ds := int(s.path.Len()) + 1 // the closed element's level
			// An element whose children were cut into incomplete runs
			// must be completed now regardless of its remaining size.
			// Its last children are cut too, while they are still
			// resident: the end tag goes on the stack after the cut.
			hasIncomplete := len(s.incomplete[ds]) > 0
			if hasIncomplete && s.data.Size() > rec.cutMark {
				if rec, err = s.cutIncompleteRun(rec, ds); err != nil {
					return nil, err
				}
			}
			end := tok.Bytes()
			if err := s.pushToken(end); err != nil {
				return nil, err
			}
			leads := s.leads[ds]
			delete(s.leads, ds)
			if ds == 1 && !s.opts.PaperLayout {
				// The root streams into the output phase, but only once
				// the scan has ended: a second root element or text
				// after this one must fail before any output is written.
				root = &docRoot{run: -1, start: rec.start, end: bytes.Clone(end), leads: leads}
				continue
			}
			size := s.data.Size() - rec.start
			withinDepth := s.opts.DepthLimit == 0 || ds <= s.opts.DepthLimit+1
			if ds == 1 || hasIncomplete || (size >= s.threshold && withinDepth) {
				var runID runstore.RunID
				if hasIncomplete && !leads {
					// No deferred merge can start inside this one: the
					// element's runs lead to none.
					leads = true
					runID, err = s.deferMerge(rec.start, end, ds)
				} else {
					runID, err = s.sortSubtree(rec.start, end, ds)
				}
				if err != nil {
					return nil, err
				}
				if ds == 1 {
					root = &docRoot{run: runID}
					continue
				}
			}
			if leads {
				s.leads[ds-1] = true
			}
			if err := s.maybeCutIncomplete(); err != nil {
				return nil, err
			}
		}
	}
	cr.Finish()
	s.report.InputBytes = cr.BytesRead()
	if root == nil {
		return nil, fmt.Errorf("core: input document has no root element")
	}
	return root, nil
}

// pushToken appends an encoded token to the data stack. While blocks are
// lent out of its window, a push that could grow the window past its shrunk
// size first takes them back: at the shrunk size it would evict a block the
// sequential run keeps resident.
func (s *sorter) pushToken(tok []byte) error {
	if s.par.lent > 0 && s.data.Held()+len(tok)/s.env.Conf.BlockSize+1 > s.data.Resident() {
		if err := s.drainWorkers(); err != nil {
			return err
		}
	}
	return s.data.Push(tok)
}

// orderStamper implements the paper's order-preservation device: each
// element gains a sequence-number attribute recording its original
// position among its siblings, zero-padded so that lexicographic
// comparison equals numeric comparison. Sorting the stamped output by that
// attribute restores the original document. The per-open-element counters
// are O(height) bookkeeping, like the parser's well-formedness stack.
type orderStamper struct {
	attr     []byte
	counters []int64
	seq      []byte // the zero-padded sequence number
	enc      []byte // the stamped start tag
	view     xmltok.Encoded
}

// seqDigits is the width sequence numbers are zero-padded to.
const seqDigits = 12

func newOrderStamper(attr string) *orderStamper {
	return &orderStamper{attr: []byte(attr), counters: make([]int64, 1, 16)}
}

// stamp returns tok with a start tag stamped, in a view of the stamper's
// that is valid until the next call. A start tag that already carries the
// attribute is an error: stamping it would write the attribute twice.
func (o *orderStamper) stamp(tok *xmltok.Encoded) (*xmltok.Encoded, error) {
	switch tok.Kind() {
	case xmltok.KindStart:
		if _, ok := tok.Attr(string(o.attr)); ok {
			return nil, fmt.Errorf("core: element <%s> already has the attribute %s that RecordOrder stamps", tok.Name(), o.attr)
		}
		seq := o.counters[len(o.counters)-1]
		o.counters[len(o.counters)-1]++
		pad := max(0, seqDigits-len(strconv.AppendInt(o.seq[:0], seq, 10)))
		o.seq = strconv.AppendInt(append(o.seq[:0], "000000000000"[:pad]...), seq, 10)
		o.enc = tok.AppendAttr(o.enc[:0], o.attr, o.seq)
		o.counters = append(o.counters, 0)
		if _, ok := o.view.Scan(o.enc); !ok {
			return nil, fmt.Errorf("core: corrupt start tag <%s>", tok.Name())
		}
		return &o.view, nil
	case xmltok.KindText:
		o.counters[len(o.counters)-1]++
	case xmltok.KindEnd:
		o.counters = o.counters[:len(o.counters)-1]
	}
	return tok, nil
}
