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

func TestEncodeDecodeStream(t *testing.T) {
	doc := `<company><region name="NE"><branch name="Durham"/></region>text</company>`
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	dict := NewDictionary()
	enc := NewEncoder(dict)
	dec := NewDecoder(dict)
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
		if ctok.Kind() == xmltok.KindEnd && len(ctok.Name()) != 0 {
			t.Error("end tag name not elided")
		}
		if !bytes.Equal(restored, orig) {
			t.Errorf("round trip mismatch: got %x, want %x", restored, orig)
		}
	}
	if compactBytes >= plainBytes {
		t.Errorf("compaction grew the stream: %d >= %d", compactBytes, plainBytes)
	}
	if dec.Depth() != 0 {
		t.Errorf("decoder left %d elements open", dec.Depth())
	}
}

func TestDecoderErrors(t *testing.T) {
	dict := NewDictionary()
	dec := NewDecoder(dict)
	if _, err := dec.Decode(view(xmltok.Token{Kind: xmltok.KindEnd})); err == nil {
		t.Error("end with nothing open should fail")
	}
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

// Property: encode/decode round-trips random well-formed streams, keys
// included, and the decoder's stack stays balanced.
func TestCompactQuick(t *testing.T) {
	names := []string{"alpha", "beta-element", "g", "delta.longish_name"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dict := NewDictionary()
		enc := NewEncoder(dict)
		dec := NewDecoder(dict)
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
			var d xmltok.Decoder
			if got := d.Decode(back); !reflect.DeepEqual(got, tok) {
				return false
			}
		}
		return dec.Depth() == len(stack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
