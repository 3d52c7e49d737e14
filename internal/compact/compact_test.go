package compact

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/xmltok"
)

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a1 := d.Alias([]byte("employee"))
	a2 := d.Alias([]byte("region"))
	if string(a1) != "0" || string(a2) != "1" {
		t.Errorf("aliases = %q, %q", a1, a2)
	}
	if string(d.Alias([]byte("employee"))) != "0" {
		t.Error("alias not stable")
	}
	if n, err := d.Name([]byte("0")); err != nil || string(n) != "employee" {
		t.Errorf("Name(0) = %q, %v", n, err)
	}
	if _, err := d.Name([]byte("7")); err == nil {
		t.Error("unknown alias should fail")
	}
	if _, err := d.Name([]byte("x")); err == nil {
		t.Error("non-numeric alias should fail")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

// view returns a view of tok's encoding.
func view(tok xmltok.Token) *xmltok.Encoded {
	var v xmltok.Encoded
	v.Scan(xmltok.AppendToken(nil, tok))
	return &v
}

// roundTrip compacts tok, checks the compacted bytes decode to a token, and
// restores it.
func roundTrip(t *testing.T, enc *Encoder, dec *Decoder, tok *xmltok.Encoded) (compacted, restored []byte) {
	t.Helper()
	ctok, err := enc.Encode(tok)
	if err != nil {
		t.Fatal(err)
	}
	compacted = bytes.Clone(ctok.Bytes())
	back, err := dec.Decode(ctok)
	if err != nil {
		t.Fatal(err)
	}
	return compacted, bytes.Clone(back.Bytes())
}

// TestEncodeDecodeStream: a compacted document restores to its own tokens,
// except that end tags come out nameless, and an xmltok.Writer writes the
// restored stream as the document.
func TestEncodeDecodeStream(t *testing.T) {
	doc := `<company><region name="NE"><branch name="Durham"></branch></region>text</company>`
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	dict := NewDictionary()
	enc := NewEncoder(dict)
	dec := NewDecoder(dict)
	var out strings.Builder
	xw := xmltok.NewWriter(&out)
	var compactBytes, plainBytes int
	for {
		tok, err := p.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		plainBytes += len(tok.Bytes())
		orig := bytes.Clone(tok.Bytes())
		compacted, restored := roundTrip(t, enc, dec, tok)
		compactBytes += len(compacted)
		var ctok xmltok.Encoded
		ctok.Scan(compacted)
		if ctok.Kind() == xmltok.KindEnd {
			if len(ctok.Name()) != 0 {
				t.Error("end tag name not elided")
			}
			orig = xmltok.AppendEndTag(nil, nil)
		}
		if !bytes.Equal(restored, orig) {
			t.Errorf("round trip mismatch: got %x, want %x", restored, orig)
		}
		var back xmltok.Encoded
		back.Scan(restored)
		if err := xw.WriteEncoded(&back); err != nil {
			t.Fatal(err)
		}
	}
	if compactBytes >= plainBytes {
		t.Errorf("compaction grew the stream: %d >= %d", compactBytes, plainBytes)
	}
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	if out.String() != doc {
		t.Errorf("restored stream writes\n%s\nwant\n%s", out.String(), doc)
	}
}

func TestDecoderErrors(t *testing.T) {
	dict := NewDictionary()
	dec := NewDecoder(dict)
	if _, err := dec.Decode(view(xmltok.Token{Kind: xmltok.KindStart, Name: "9"})); err == nil {
		t.Error("unknown alias should fail")
	}
	dict.Alias([]byte("a"))
	if _, err := dec.Decode(view(xmltok.Token{Kind: xmltok.KindStart, Name: "0", Attrs: []xmltok.Attr{{Name: "9", Value: "v"}}})); err == nil {
		t.Error("unknown attribute alias should fail")
	}
}

func TestRunPtrPassThrough(t *testing.T) {
	dict := NewDictionary()
	enc := NewEncoder(dict)
	dec := NewDecoder(dict)
	ptr := xmltok.Token{Kind: xmltok.KindRunPtr, Run: 5, Name: "collapsed", Key: "k", HasKey: true}
	compacted, restored := roundTrip(t, enc, dec, view(ptr))
	var d xmltok.Decoder
	cp, err := d.DecodeToken(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Run != 5 || cp.Key != "k" {
		t.Errorf("encode mangled run ptr: %+v", cp)
	}
	if !bytes.Equal(restored, xmltok.AppendToken(nil, ptr)) {
		t.Errorf("round trip: %x vs %x", restored, xmltok.AppendToken(nil, ptr))
	}
}

// TestDecoderDropsEndTagNames: an end tag decodes nameless, with its key,
// whether its name was elided or is an alias, as the key-path builder
// writes a compacted start tag's end tag.
func TestDecoderDropsEndTagNames(t *testing.T) {
	dict := NewDictionary()
	dict.Alias([]byte("a"))
	dec := NewDecoder(dict)
	want := xmltok.AppendToken(nil, xmltok.Token{Kind: xmltok.KindEnd, Key: "k", HasKey: true})
	for _, name := range []string{"", "0"} {
		got, err := dec.Decode(view(xmltok.Token{Kind: xmltok.KindEnd, Name: name, Key: "k", HasKey: true}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("end tag named %q decodes to %x, want %x", name, got.Bytes(), want)
		}
	}
}

// Property: encode/decode round-trips random well-formed streams, keys
// included, but for end-tag names, which an xmltok.Writer restores: it
// writes the restored stream as it writes the original.
func TestCompactQuick(t *testing.T) {
	names := []string{"alpha", "beta-element", "g", "delta.longish_name"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dict := NewDictionary()
		enc := NewEncoder(dict)
		dec := NewDecoder(dict)
		var want, got strings.Builder
		ww, gw := xmltok.NewWriter(&want), xmltok.NewWriter(&got)
		var stack []string
		steps := 5 + rng.Intn(60)
		for i := 0; i < steps; i++ {
			var tok xmltok.Token
			switch {
			case len(stack) == 0 || rng.Intn(3) > 0:
				tok = xmltok.Token{Kind: xmltok.KindStart, Name: names[rng.Intn(len(names))]}
				if rng.Intn(2) == 0 {
					tok.Attrs = []xmltok.Attr{{Name: names[rng.Intn(len(names))], Value: "v"}}
				}
				stack = append(stack, tok.Name)
			case rng.Intn(2) == 0:
				tok = xmltok.Token{Kind: xmltok.KindText, Text: "t"}
			default:
				tok = xmltok.Token{Kind: xmltok.KindEnd, Name: stack[len(stack)-1]}
				stack = stack[:len(stack)-1]
			}
			if tok.Kind != xmltok.KindText && rng.Intn(2) == 0 {
				tok.Key, tok.HasKey = "k", true
			}
			ctok, err := enc.Encode(view(tok))
			if err != nil {
				return false
			}
			back, err := dec.Decode(ctok)
			if err != nil {
				return false
			}
			restored := tok
			if tok.Kind == xmltok.KindEnd {
				restored.Name = ""
			}
			var d xmltok.Decoder
			if !reflect.DeepEqual(d.Decode(back), restored) {
				return false
			}
			if ww.WriteToken(tok) != nil || gw.WriteEncoded(back) != nil {
				return false
			}
		}
		return got.String() == want.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
