package xmltok

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriterCompact(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	toks := []Token{
		{Kind: KindStart, Name: "a", Attrs: []Attr{{"x", `v"1`}, {"y", "a&b"}}},
		{Kind: KindText, Text: "1 < 2 & 3 > 2"},
		{Kind: KindStart, Name: "b"},
		{Kind: KindEnd, Name: "b"},
		{Kind: KindEnd, Name: "a"},
	}
	for _, tok := range toks {
		if err := w.WriteToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := `<a x="v&quot;1" y="a&amp;b">1 &lt; 2 &amp; 3 &gt; 2<b></b></a>`
	if buf.String() != want {
		t.Errorf("output:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestWriterIndent(t *testing.T) {
	var buf bytes.Buffer
	w := NewIndentWriter(&buf, "  ")
	toks := []Token{
		{Kind: KindStart, Name: "a"},
		{Kind: KindStart, Name: "b"},
		{Kind: KindText, Text: "x"},
		{Kind: KindEnd, Name: "b"},
		{Kind: KindEnd, Name: "a"},
	}
	for _, tok := range toks {
		if err := w.WriteToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := "<a>\n  <b>x</b>\n</a>\n"
	if buf.String() != want {
		t.Errorf("output:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestWriterRestoresEndTagNames: an end tag without a name is written
// under the name of the element it closes; a named one as it is.
func TestWriterRestoresEndTagNames(t *testing.T) {
	for _, indent := range []string{"", "  "} {
		var buf bytes.Buffer
		w := NewIndentWriter(&buf, indent)
		for _, tok := range []Token{
			{Kind: KindStart, Name: "a"},
			{Kind: KindStart, Name: "bb"},
			{Kind: KindText, Text: "x"},
			{Kind: KindEnd},
			{Kind: KindStart, Name: "c"},
			{Kind: KindEnd, Name: "c"},
			{Kind: KindEnd},
		} {
			if err := w.WriteToken(tok); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := "<a><bb>x</bb><c></c></a>"
		if indent != "" {
			want = "<a>\n  <bb>x</bb>\n  <c></c>\n</a>\n"
		}
		if buf.String() != want {
			t.Errorf("indent %q: wrote %q, want %q", indent, buf.String(), want)
		}
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteToken(Token{Kind: KindEnd, Name: "x"}); err == nil {
		t.Error("unbalanced end should fail")
	}
	w2 := NewWriter(&buf)
	w2.WriteToken(Token{Kind: KindStart, Name: "a"})
	if err := w2.Close(); err == nil {
		t.Error("close with open element should fail")
	}
	w3 := NewWriter(&buf)
	if err := w3.WriteToken(Token{Kind: KindRunPtr, Run: 1}); err == nil {
		t.Error("run pointer should not serialize")
	}
}

// randomTokens builds a random well-formed token stream.
func randomTokens(rng *rand.Rand, maxElems int) []Token {
	names := []string{"a", "bb", "c-c", "d.d", "e_e"}
	values := []string{"", "v", `a"b`, "x&y", "1<2", "日本", "  spaced  "}
	var toks []Token
	var emit func(depth int, budget *int)
	emit = func(depth int, budget *int) {
		if *budget <= 0 {
			return
		}
		*budget--
		tok := Token{Kind: KindStart, Name: names[rng.Intn(len(names))]}
		for i := rng.Intn(3); i > 0; i-- {
			tok.Attrs = append(tok.Attrs, Attr{
				Name:  names[rng.Intn(len(names))] + "x",
				Value: values[rng.Intn(len(values))],
			})
		}
		// Attribute names must be unique within a tag.
		seen := map[string]bool{}
		uniq := tok.Attrs[:0]
		for _, a := range tok.Attrs {
			if !seen[a.Name] {
				seen[a.Name] = true
				uniq = append(uniq, a)
			}
		}
		tok.Attrs = uniq
		toks = append(toks, tok)
		for i := rng.Intn(3); i > 0 && depth < 6; i-- {
			if rng.Intn(2) == 0 {
				txt := values[rng.Intn(len(values))]
				if txt != "" {
					toks = append(toks, Token{Kind: KindText, Text: txt})
				}
			} else {
				emit(depth+1, budget)
			}
		}
		toks = append(toks, Token{Kind: KindEnd, Name: tok.Name})
	}
	budget := 1 + rng.Intn(maxElems)
	emit(0, &budget)
	return toks
}

// Property: serialize→parse round-trips arbitrary token streams, in both
// compact and indented modes (indentation must not change non-whitespace
// token content).
func TestWriterParserRoundTrip(t *testing.T) {
	f := func(seed int64, indented bool) bool {
		rng := rand.New(rand.NewSource(seed))
		toks := randomTokens(rng, 30)
		var buf bytes.Buffer
		var w *Writer
		if indented {
			w = NewIndentWriter(&buf, "\t")
		} else {
			w = NewWriter(&buf)
		}
		for _, tok := range toks {
			if err := w.WriteToken(tok); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		p := NewParser(&buf, ParserOptions{SkipWhitespaceText: indented})
		var got []Token
		for {
			tok, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, tok)
		}
		// Adjacent text tokens serialize contiguously and parse back as
		// one token, so compare coalesced streams; indentation further
		// pads text with whitespace, so trim in that mode.
		want := coalesce(toks)
		got = coalesce(got)
		if indented {
			want = trimTokens(want)
			got = trimTokens(got)
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func trimTokens(toks []Token) []Token {
	var out []Token
	for _, tok := range toks {
		if tok.Kind == KindText {
			tok.Text = strings.TrimRight(strings.TrimLeft(tok.Text, "\n\t"), "\n\t")
			if tok.Text == "" {
				continue
			}
		}
		out = append(out, tok)
	}
	return out
}

// Property: binary codec round-trips arbitrary tokens.
func TestCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		toks := randomTokens(rng, 20)
		// Sprinkle ordering keys on a few tokens and add a run pointer,
		// exercising the optional-key flag for every kind.
		for i := range toks {
			if rng.Intn(3) == 0 {
				toks[i].Key, toks[i].HasKey = toks[i].Name+"-key", true
			}
		}
		toks = append(toks, Token{Kind: KindRunPtr, Run: rng.Int63(), Name: "sub"})
		var buf []byte
		for _, tok := range toks {
			buf = AppendToken(buf, tok)
		}
		r := bytes.NewReader(buf)
		var got []Token
		for {
			tok, err := ReadToken(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, tok)
		}
		return reflect.DeepEqual(got, toks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodecTruncation(t *testing.T) {
	full := AppendToken(nil, Token{Kind: KindStart, Name: "element", Attrs: []Attr{{"a", "value"}}})
	for cut := 1; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		if _, err := ReadToken(r); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadToken(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty: err = %v, want io.EOF", err)
	}
	if _, err := ReadToken(bytes.NewReader([]byte{0xFF})); err == nil {
		t.Error("unknown kind byte should fail")
	}
}

func TestCodecEmptyStrings(t *testing.T) {
	toks := []Token{
		{Kind: KindText, Text: ""},
		{Kind: KindStart, Name: "a", Attrs: []Attr{{"k", ""}}},
		{Kind: KindEnd, Name: "a", Key: "", HasKey: true},
		{Kind: KindRunPtr, Run: 0, Name: ""},
	}
	var buf []byte
	for _, tok := range toks {
		buf = AppendToken(buf, tok)
	}
	r := bytes.NewReader(buf)
	for i, want := range toks {
		got, err := ReadToken(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("token %d: got %+v, want %+v", i, got, want)
		}
	}
}
