package xmltok

import (
	"encoding/xml"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parseAll collects all tokens from a document.
func parseAll(t *testing.T, doc string, opts ParserOptions) []Token {
	t.Helper()
	p := NewParser(strings.NewReader(doc), opts)
	var toks []Token
	for {
		tok, err := p.Next()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatalf("Next: %v (after %d tokens)", err, len(toks))
		}
		toks = append(toks, tok)
	}
}

func TestParserBasic(t *testing.T) {
	doc := `<?xml version="1.0"?>
<company>
  <region name="NE">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
  </region>
</company>`
	got := parseAll(t, doc, DefaultParserOptions())
	want := []Token{
		{Kind: KindStart, Name: "company"},
		{Kind: KindStart, Name: "region", Attrs: []Attr{{"name", "NE"}}},
		{Kind: KindStart, Name: "branch", Attrs: []Attr{{"name", "Durham"}}},
		{Kind: KindStart, Name: "employee", Attrs: []Attr{{"ID", "454"}}},
		{Kind: KindEnd, Name: "employee"},
		{Kind: KindStart, Name: "employee", Attrs: []Attr{{"ID", "323"}}},
		{Kind: KindStart, Name: "name"},
		{Kind: KindText, Text: "Smith"},
		{Kind: KindEnd, Name: "name"},
		{Kind: KindStart, Name: "phone"},
		{Kind: KindText, Text: "5552345"},
		{Kind: KindEnd, Name: "phone"},
		{Kind: KindEnd, Name: "employee"},
		{Kind: KindEnd, Name: "branch"},
		{Kind: KindEnd, Name: "region"},
		{Kind: KindEnd, Name: "company"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestParserEntitiesAndCDATA(t *testing.T) {
	doc := `<a x="1 &amp; 2&#33;&#x21;"><![CDATA[raw <stuff> & more]]>a &lt;b&gt; &quot;c&quot; &apos;d&apos;</a>`
	got := parseAll(t, doc, ParserOptions{SkipWhitespaceText: false})
	want := []Token{
		{Kind: KindStart, Name: "a", Attrs: []Attr{{"x", "1 & 2!!"}}},
		{Kind: KindText, Text: "raw <stuff> & more"},
		{Kind: KindText, Text: `a <b> "c" 'd'`},
		{Kind: KindEnd, Name: "a"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestParserCommentsPIDoctype(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!DOCTYPE root [ <!ELEMENT root (#PCDATA)> ]>
<!-- a comment with <tags> -->
<root><!-- inner --><?pi data?>x</root>`
	got := parseAll(t, doc, DefaultParserOptions())
	want := []Token{
		{Kind: KindStart, Name: "root"},
		{Kind: KindText, Text: "x"},
		{Kind: KindEnd, Name: "root"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestParserWhitespaceHandling(t *testing.T) {
	doc := "<a>\n  <b> </b>\n</a>"
	withWS := parseAll(t, doc, ParserOptions{SkipWhitespaceText: false})
	if len(withWS) != 7 {
		t.Errorf("with whitespace: %d tokens, want 7: %v", len(withWS), withWS)
	}
	noWS := parseAll(t, doc, DefaultParserOptions())
	if len(noWS) != 4 {
		t.Errorf("without whitespace: %d tokens, want 4: %v", len(noWS), noWS)
	}
}

func TestParserSingleQuotes(t *testing.T) {
	got := parseAll(t, `<a k='va"l'/>`, DefaultParserOptions())
	if got[0].Attrs[0].Value != `va"l` {
		t.Errorf("attr = %q", got[0].Attrs[0].Value)
	}
}

func TestParserDepth(t *testing.T) {
	p := NewParser(strings.NewReader("<a><b></b></a>"), DefaultParserOptions())
	depths := []int{}
	for {
		_, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		depths = append(depths, p.Depth())
	}
	want := []int{1, 2, 1, 0}
	if !reflect.DeepEqual(depths, want) {
		t.Errorf("depths = %v, want %v", depths, want)
	}
}

func TestParserMalformed(t *testing.T) {
	cases := []string{
		"<a><b></a></b>",   // crossed nesting
		"<a>",              // unclosed
		"</a>",             // end with no start
		"<a></a><b></b>",   // two roots
		"<a x=5></a>",      // unquoted attribute
		"<a x='v<'></a>",   // raw < in value
		"<a>&unknown;</a>", // unknown entity
		"<a>&#xZZ;</a>",    // bad char ref
		"text<a></a>",      // data before root
		"<1tag></1tag>",    // bad name
		"<a x></a>",        // attr without value
		"<a/",              // truncated self-close
		"<!-- unterminated",
	}
	for _, doc := range cases {
		p := NewParser(strings.NewReader(doc), DefaultParserOptions())
		var err error
		for err == nil {
			_, err = p.Next()
		}
		if err == io.EOF {
			t.Errorf("document %q parsed without error", doc)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("document %q: error %v is not ErrMalformed", doc, err)
		}
	}
}

func TestParserTrailingJunkAllowed(t *testing.T) {
	// Whitespace, comments and PIs may follow the root element.
	got := parseAll(t, "<a></a>\n<!-- bye -->\n<?pi?>\n", DefaultParserOptions())
	if len(got) != 2 {
		t.Errorf("got %d tokens", len(got))
	}
}

// TestParserAgainstEncodingXML cross-validates the tokenizer against the
// standard library on a corpus of documents.
func TestParserAgainstEncodingXML(t *testing.T) {
	docs := []string{
		`<root><a x="1"><b>text</b></a><a x="2"/></root>`,
		`<r>before<mid a="&amp;"/>after</r>`,
		`<r><![CDATA[<not a tag>]]></r>`,
		"<r>élève 世界</r>",
		`<deep><a><b><c><d><e>leaf</e></d></c></b></a></deep>`,
	}
	for _, doc := range docs {
		mine := parseAll(t, doc, ParserOptions{SkipWhitespaceText: false})
		std, err := encodingXMLTokens(doc)
		if err != nil {
			t.Fatalf("encoding/xml on %q: %v", doc, err)
		}
		if !sameTokensAsEncodingXML(mine, std) {
			t.Errorf("doc %q:\n mine %v\n  std %v", doc, coalesce(mine), coalesce(std))
		}
	}
}

// encodingXMLTokens tokenizes doc with encoding/xml. Names keep their
// prefixes, and character data outside the root element is dropped, as
// this parser reports them.
func encodingXMLTokens(doc string) ([]Token, error) {
	var std []Token
	depth := 0
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			return std, nil
		}
		if err != nil {
			return nil, err
		}
		switch v := tok.(type) {
		case xml.StartElement:
			st := Token{Kind: KindStart, Name: fullName(v.Name)}
			for _, a := range v.Attr {
				st.Attrs = append(st.Attrs, Attr{fullName(a.Name), a.Value})
			}
			std = append(std, st)
			depth++
		case xml.EndElement:
			std = append(std, Token{Kind: KindEnd, Name: fullName(v.Name)})
			depth--
		case xml.CharData:
			if depth > 0 {
				std = append(std, Token{Kind: KindText, Text: string(v)})
			}
		}
	}
}

func fullName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// sameTokensAsEncodingXML compares token streams; encoding/xml may split
// adjacent character data, so text is coalesced on both sides and empty
// text dropped.
func sameTokensAsEncodingXML(mine, std []Token) bool {
	return reflect.DeepEqual(dropEmptyText(coalesce(mine)), dropEmptyText(coalesce(std)))
}

func dropEmptyText(toks []Token) []Token {
	out := toks[:0:0]
	for _, tok := range toks {
		if tok.Kind != KindText || tok.Text != "" {
			out = append(out, tok)
		}
	}
	return out
}

func coalesce(toks []Token) []Token {
	var out []Token
	for _, t := range toks {
		if t.Kind == KindText && len(out) > 0 && out[len(out)-1].Kind == KindText {
			out[len(out)-1].Text += t.Text
			continue
		}
		out = append(out, t)
	}
	return out
}

// TestTokenAttrLookup: a start tag's view finds the first attribute of a
// name, and reports a missing one absent.
func TestTokenAttrLookup(t *testing.T) {
	var tok Encoded
	tok.Scan(AppendToken(nil, Token{Kind: KindStart, Name: "e", Attrs: []Attr{{"a", "1"}, {"b", "2"}, {"b", "3"}}}))
	if v, ok := tok.Attr("b"); !ok || string(v) != "2" {
		t.Errorf("Attr(b) = %q, %v", v, ok)
	}
	if _, ok := tok.Attr("missing"); ok {
		t.Error("Attr(missing) should report absence")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindStart: "start", KindEnd: "end", KindText: "text", KindRunPtr: "runptr",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
