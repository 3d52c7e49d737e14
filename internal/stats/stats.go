// Package stats computes the shape statistics of an XML document in one
// streaming pass with O(height) memory: exactly the parameters of the
// paper's analysis (N, k, height, element sizes) plus a per-level profile.
// Combined with the theory package it predicts, for a given environment,
// the XML sorting lower bound, NEXSORT's upper bound and the flat-file
// bound for the concrete document — the numbers a capacity planner would
// want before choosing a sorter and a memory budget.
package stats

import (
	"io"

	"nexsort/internal/xmltok"
)

// LevelProfile describes one nesting level (root = level 1).
type LevelProfile struct {
	Level     int
	Elements  int64
	MaxFanout int
}

// Document is the streaming statistics result.
type Document struct {
	// Elements is N; TextNodes counts character-data nodes.
	Elements  int64
	TextNodes int64
	// Bytes is the document's size as read.
	Bytes int64
	// Height is the deepest element nesting.
	Height int
	// MaxFanout is k, counting element and text children alike (the
	// analysis treats both as orderable children).
	MaxFanout int
	// AvgElementBytes is Bytes/Elements, the B-divisor of the analysis.
	AvgElementBytes float64
	// Levels holds the per-level profile.
	Levels []LevelProfile
}

// Scan consumes the document and returns its statistics.
func Scan(r io.Reader) (*Document, error) {
	counter := &countingReader{r: r}
	p := xmltok.NewParser(counter, xmltok.DefaultParserOptions())
	doc := &Document{}
	var fanouts []int // open-element child counts (O(height))

	bump := func() {
		if len(fanouts) == 0 {
			return
		}
		fanouts[len(fanouts)-1]++
		level := len(fanouts)
		if f := fanouts[level-1]; f > doc.Levels[level-1].MaxFanout {
			doc.Levels[level-1].MaxFanout = f
		}
		if f := fanouts[len(fanouts)-1]; f > doc.MaxFanout {
			doc.MaxFanout = f
		}
	}

	for {
		tok, err := p.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tok.Kind() {
		case xmltok.KindStart:
			bump()
			fanouts = append(fanouts, 0)
			if len(fanouts) > doc.Height {
				doc.Height = len(fanouts)
			}
			for len(doc.Levels) < len(fanouts) {
				doc.Levels = append(doc.Levels, LevelProfile{Level: len(doc.Levels) + 1})
			}
			doc.Levels[len(fanouts)-1].Elements++
			doc.Elements++
		case xmltok.KindText:
			doc.TextNodes++
			bump()
		case xmltok.KindEnd:
			fanouts = fanouts[:len(fanouts)-1]
		}
	}
	doc.Bytes = counter.n
	if doc.Elements > 0 {
		doc.AvgElementBytes = float64(doc.Bytes) / float64(doc.Elements)
	}
	return doc, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
