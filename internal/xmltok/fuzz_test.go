package xmltok

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParser throws arbitrary bytes at the textual parser: it must never
// panic, and whenever it accepts a document, serializing the tokens and
// re-parsing must reproduce them (coalescing adjacent text, which
// serialization merges).
func FuzzParser(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1">text</a>`,
		`<?xml version="1.0"?><r><![CDATA[x]]><!-- c --></r>`,
		`<a>&amp;&#65;</a>`,
		`<a x='q"q'><b/></a>`,
		`<a`, `</`, `<a></b>`, `<<>>`, "\x00\xff<",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		p := NewParser(strings.NewReader(doc), DefaultParserOptions())
		var toks []Token
		for {
			tok, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected input is fine; panics are not
			}
			toks = append(toks, tok)
		}
		if len(toks) == 0 {
			return
		}
		// Accepted: round-trip through the writer.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, tok := range toks {
			if err := w.WriteToken(tok); err != nil {
				t.Fatalf("accepted tokens failed to serialize: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("accepted document unbalanced: %v", err)
		}
		p2 := NewParser(&buf, ParserOptions{SkipWhitespaceText: false, ValidateNesting: true})
		var back []Token
		for {
			tok, err := p2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("serialized form failed to re-parse: %v", err)
			}
			back = append(back, tok)
		}
		// The original parse may drop whitespace-only text (default
		// options); apply the same filter to the re-parse.
		back = dropWhitespaceText(back)
		toks = dropWhitespaceText(toks)
		if !reflect.DeepEqual(coalesce(toks), coalesce(back)) {
			t.Fatalf("round trip mismatch:\n in  %v\n out %v", toks, back)
		}
	})
}

func dropWhitespaceText(toks []Token) []Token {
	out := toks[:0:0]
	for _, tok := range toks {
		if tok.Kind == KindText && strings.TrimLeft(tok.Text, " \t\r\n") == "" {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// FuzzParserWindows parses each input three ways: through a WindowReader
// whose windows end every k bytes (k taken from the input), through
// iotest.OneByteReader (one-byte windows via the bufio adapter), and
// through a single window holding the whole input. All three must yield
// the same views, byte for byte, and the same error, since a token that
// straddles a window edge takes a different path than one that does not.
// Each view must be AppendToken's encoding of its own decode. Accepted
// documents must also tokenize as encoding/xml does.
func FuzzParserWindows(f *testing.F) {
	f.Add(`<a k="v">x&amp;y<![CDATA[z]]><!--c--></a>`, uint8(7))
	f.Add(`<a><b/></a>`, uint8(0))
	f.Add(`<a k="x&amp;y&#65;" j='&lt;'>t</a>`, uint8(9))
	f.Add(manyAttrs(130), uint8(63))
	f.Add(`<r><b k="v"/></r>`, uint8(11))       // the window edge falls inside "/>"
	f.Add(`<a><![CDATA[x<y]]>z</a>`, uint8(14)) // and inside the CDATA section
	f.Add(`<a><!x "q>" <y><!--z>-->>t</a>`, uint8(6))
	f.Fuzz(func(t *testing.T, doc string, kRaw uint8) {
		k := 1 + int(kRaw)%64
		opts := ParserOptions{SkipWhitespaceText: kRaw&0x80 != 0, ValidateNesting: true}
		chunked, chunkedErr := parseVia(&chunkWindow{data: []byte(doc), k: k}, opts)
		oneByte, oneByteErr := parseVia(iotest.OneByteReader(strings.NewReader(doc)), opts)
		whole, wholeErr := parseVia(&chunkWindow{data: []byte(doc), k: len(doc) + 1}, opts)
		if errString(chunkedErr) != errString(wholeErr) || errString(oneByteErr) != errString(wholeErr) {
			t.Fatalf("verdicts differ: %d-byte windows %v, one-byte reader %v, whole buffer %v",
				k, chunkedErr, oneByteErr, wholeErr)
		}
		if !reflect.DeepEqual(chunked, whole) || !reflect.DeepEqual(oneByte, whole) {
			t.Fatalf("views differ:\n %d-byte windows %x\n one-byte reader %x\n whole buffer %x",
				k, chunked, oneByte, whole)
		}
		toks := make([]Token, len(whole))
		for i, view := range whole {
			var d Decoder
			tok, err := d.DecodeToken(view)
			if err != nil {
				t.Fatalf("view %x does not decode: %v", view, err)
			}
			if enc := AppendToken(nil, tok); !bytes.Equal(enc, view) {
				t.Fatalf("view %x of %+v, AppendToken writes %x", view, tok, enc)
			}
			toks[i] = tok
		}
		if wholeErr != nil || opts.SkipWhitespaceText || strings.Contains(doc, "\r") {
			// encoding/xml folds CR and CRLF into LF; this parser keeps them.
			return
		}
		std, err := encodingXMLTokens(doc)
		if err != nil {
			return // the standard library is stricter in places
		}
		if !sameTokensAsEncodingXML(toks, std) {
			t.Fatalf("differs from encoding/xml:\n mine %v\n  std %v", coalesce(toks), coalesce(std))
		}
	})
}

// manyAttrs is a self-closing tag with n attributes.
func manyAttrs(n int) string {
	var sb strings.Builder
	sb.WriteString("<a")
	for i := range n {
		fmt.Fprintf(&sb, ` a%d="%d"`, i, i)
	}
	sb.WriteString("/>")
	return sb.String()
}

// parseVia parses the whole document from r, returning a copy of each
// view's bytes up to the first error and that error (nil at a clean end).
func parseVia(r io.Reader, opts ParserOptions) ([][]byte, error) {
	p := NewParser(r, opts)
	var views [][]byte
	for {
		e, err := p.NextEncoded()
		if err == io.EOF {
			return views, nil
		}
		if err != nil {
			return views, err
		}
		views = append(views, bytes.Clone(e.Bytes()))
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// chunkWindow is a WindowReader over a byte slice whose windows end at
// every multiple of k, as a block reader's end at block boundaries. It
// also reads as an io.Reader and io.ByteReader, like the block readers.
type chunkWindow struct {
	data   []byte
	pos, k int
	// last is the length of the window most recently returned; Advance
	// past it is a contract violation.
	last int
}

func (c *chunkWindow) Window() ([]byte, error) {
	if c.pos >= len(c.data) {
		c.last = 0
		return nil, io.EOF
	}
	w := c.data[c.pos:min(len(c.data), (c.pos/c.k+1)*c.k)]
	c.last = len(w)
	return w, nil
}

func (c *chunkWindow) Advance(n int) {
	if n < 0 || n > c.last {
		panic("chunkWindow: Advance past the window")
	}
	c.pos += n
	c.last -= n
}

func (c *chunkWindow) Read(p []byte) (int, error) {
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	c.Advance(n)
	return n, nil
}

func (c *chunkWindow) ReadByte() (byte, error) {
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	c.Advance(1)
	return w[0], nil
}

// FuzzCodec throws arbitrary bytes at the binary token decoder: it must
// never panic or over-allocate, and any token it accepts must re-encode
// to a decodable form. The stream is decoded three ways — from a plain
// io.ByteReader, through one-byte windows (every token straddles a window
// edge) and through a single whole-buffer window (every token decodes in
// place) — and all three must agree token for token and on the final
// error.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendToken(nil, Token{Kind: KindStart, Name: "a", Attrs: []Attr{{"k", "v"}}}))
	f.Add(AppendToken(nil, Token{Kind: KindRunPtr, Run: 7, Name: "x", Key: "k", HasKey: true}))
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, plainErr := decodeAll(bytes.NewReader(data))
		oneByte, oneByteErr := decodeAll(&chunkWindow{data: data, k: 1})
		whole, wholeErr := decodeAll(&chunkWindow{data: data, k: len(data) + 1})
		if errString(oneByteErr) != errString(plainErr) || errString(wholeErr) != errString(plainErr) {
			t.Fatalf("final errors differ: plain %v, one-byte windows %v, whole buffer %v", plainErr, oneByteErr, wholeErr)
		}
		if !reflect.DeepEqual(oneByte, plain) || !reflect.DeepEqual(whole, plain) {
			t.Fatalf("tokens differ:\n plain %+v\n one-byte windows %+v\n whole buffer %+v", plain, oneByte, whole)
		}
		for _, tok := range plain {
			enc := AppendToken(nil, tok)
			back, err := ReadToken(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("accepted token failed to round-trip: %v", err)
			}
			if !reflect.DeepEqual(tok, back) {
				t.Fatalf("round trip mismatch: %+v vs %+v", tok, back)
			}
		}
	})
}

// decodeAll decodes tokens from r with one Decoder until the first error,
// returning the tokens and that error (io.EOF at a clean end).
func decodeAll(r io.ByteReader) ([]Token, error) {
	var d Decoder
	var toks []Token
	for {
		tok, err := d.ReadToken(r)
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
	}
}
