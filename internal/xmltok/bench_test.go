package xmltok

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// benchDoc builds a ~1 MB document for throughput benchmarks.
func benchDoc() string {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for sb.Len() < 1<<20 {
		fmt.Fprintf(&sb, `<product sku="%06d" cat="c%d"><name>Item %d</name><desc>A modest description with some text in it.</desc></product>`,
			rng.Intn(1000000), rng.Intn(50), rng.Intn(10000))
	}
	sb.WriteString("</catalog>")
	return sb.String()
}

// BenchmarkParserThroughput measures the streaming tokenizer as the sorters
// run it: each token's encoding, as a view.
func BenchmarkParserThroughput(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewParser(strings.NewReader(doc), DefaultParserOptions())
		for {
			if _, err := p.NextEncoded(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParserTokens measures the tokenizer with every view decoded
// into a Token, as Next's callers run it.
func BenchmarkParserTokens(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewParser(strings.NewReader(doc), DefaultParserOptions())
		for {
			if _, err := p.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWriterThroughput measures serialization.
func BenchmarkWriterThroughput(b *testing.B) {
	doc := benchDoc()
	p := NewParser(strings.NewReader(doc), DefaultParserOptions())
	var toks []Token
	for {
		tok, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		toks = append(toks, tok)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, tok := range toks {
			if err := w.WriteToken(tok); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundTrip measures the binary token codec.
func BenchmarkCodecRoundTrip(b *testing.B) {
	toks := []Token{
		{Kind: KindStart, Name: "product", Attrs: []Attr{{"sku", "123456"}, {"cat", "c7"}}, Key: "123456", HasKey: true},
		{Kind: KindText, Text: "A modest description with some text in it."},
		{Kind: KindEnd, Name: "product", Key: "123456", HasKey: true},
		{Kind: KindRunPtr, Run: 42, Name: "sub", Key: "k", HasKey: true},
	}
	var enc []byte
	for _, tok := range toks {
		enc = AppendToken(enc, tok)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendToken(nil, toks[0])
		for _, tok := range toks[1:] {
			buf = AppendToken(buf, tok)
		}
		r := bytes.NewReader(buf)
		for {
			if _, err := ReadToken(r); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
