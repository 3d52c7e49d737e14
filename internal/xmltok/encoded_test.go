package xmltok

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// corruptCounts are encoded tokens whose counts claim far more bytes than
// follow them: an attribute count of 2^26-1, a text length of 2^26-1, and
// an attribute count of 20,000 at the head of a 64 KiB window whose first
// attribute name claims 2^28-1 bytes.
func corruptCounts() map[string][]byte {
	window := []byte{byte(KindStart), 1, 'a'}
	window = binary.AppendUvarint(window, 20000)
	window = append(window, 0xff, 0xff, 0xff, 0x7f)
	window = append(window, make([]byte, 64<<10-len(window))...)
	return map[string][]byte{
		"attribute count": {byte(KindStart), 1, 'a', 0xff, 0xff, 0xff, 0x1f},
		"text length":     {byte(KindText), 0xff, 0xff, 0xff, 0x1f},
		"window attrs":    window,
	}
}

// byteReaders open a token stream the three ways the decoder reads one: a
// plain reader, one-byte windows (every token straddles a window edge) and
// a whole-buffer window (every token decodes in place).
var byteReaders = map[string]func([]byte) io.ByteReader{
	"plain reader":        func(in []byte) io.ByteReader { return bytes.NewReader(in) },
	"one-byte windows":    func(in []byte) io.ByteReader { return &chunkWindow{data: in, k: 1} },
	"whole-buffer window": func(in []byte) io.ByteReader { return &chunkWindow{data: in, k: len(in) + 1} },
}

// TestCorruptTokenCountsDoNotAllocate: a corrupt count must fail after
// allocating in proportion to the bytes present, not to the count it
// claims — through a plain reader, one-byte windows and a whole-buffer
// window, and through both ReadToken and ReadEncoded.
func TestCorruptTokenCountsDoNotAllocate(t *testing.T) {
	// The bytes are averaged over several calls, so that an allocation
	// elsewhere in the process while they run cannot fail the test.
	const limit, calls = 64 << 10, 20
	for input, in := range corruptCounts() {
		for reader, open := range byteReaders {
			entries := map[string]func(io.ByteReader) error{
				"ReadToken": func(r io.ByteReader) error {
					var d Decoder
					_, err := d.ReadToken(r)
					return err
				},
				"ReadEncoded": func(r io.ByteReader) error {
					var d Decoder
					_, err := d.ReadEncoded(r)
					return err
				},
			}
			for entry, call := range entries {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var err error
				for i := 0; i < calls; i++ {
					err = call(open(in))
				}
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("%s, %s, %s: accepted a corrupt token", input, reader, entry)
				}
				if n := (after.TotalAlloc - before.TotalAlloc) / calls; n > limit {
					t.Errorf("%s, %s, %s: allocated %d bytes per call, want at most %d", input, reader, entry, n, limit)
				}
			}
		}
	}
}

// TestKindBit0x40Rejected: 0x40 is not a flag bit, so a kind byte with it
// set is an unknown kind to every entry point. Each input is a valid token
// with the bit set and one more byte after it, which a decoder that took
// the bit for a flag would swallow as that flag's field.
func TestKindBit0x40Rejected(t *testing.T) {
	inputs := map[string][]byte{}
	for _, tok := range encodedSeedTokens() {
		in := AppendToken(nil, tok)
		in[0] |= 0x40
		inputs[fmt.Sprintf("%v key=%v", tok.Kind, tok.HasKey)] = append(in, 3)
	}
	const want = "unknown token kind"
	for input, in := range inputs {
		for reader, open := range byteReaders {
			var d Decoder
			if _, err := d.ReadToken(open(in)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: ReadToken = %v, want %q", input, reader, err, want)
			}
			if _, err := d.ReadEncoded(open(in)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: ReadEncoded = %v, want %q", input, reader, err, want)
			}
		}
		var d Decoder
		if _, err := d.DecodeToken(in); err == nil {
			t.Errorf("%s: DecodeToken accepted it", input)
		}
		var v Encoded
		if n, ok := v.Scan(in); ok {
			t.Errorf("%s: Scan accepted %d bytes", input, n)
		}
	}
}

// TestReadEncodedMatchesDecoder reads a token stream as views through
// windows of every width, so that each token both lies inside a window and
// straddles its edge somewhere: every view must be the token's own bytes,
// and the run must end where the decoder's does.
func TestReadEncodedMatchesDecoder(t *testing.T) {
	var stream []byte
	var want [][]byte
	for _, tok := range encodedSeedTokens() {
		enc := AppendToken(nil, tok)
		want = append(want, enc)
		stream = append(stream, enc...)
	}
	for k := 1; k <= len(stream)+1; k++ {
		r := &chunkWindow{data: stream, k: k}
		var d Decoder
		for i := 0; ; i++ {
			v, err := d.ReadEncoded(r)
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("k=%d: %d tokens, want %d", k, i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatalf("k=%d token %d: %v", k, i, err)
			}
			if !bytes.Equal(v.Bytes(), want[i]) {
				t.Fatalf("k=%d token %d: view %x, want %x", k, i, v.Bytes(), want[i])
			}
		}
	}
	// A truncated stream fails as the decoder fails it.
	cut := stream[:len(stream)-1]
	var d Decoder
	_, wantErr := decodeAll(bytes.NewReader(cut))
	r := &chunkWindow{data: cut, k: 3}
	var err error
	for err == nil {
		_, err = d.ReadEncoded(r)
	}
	if errString(err) != errString(wantErr) {
		t.Errorf("truncated stream: %v, decoder gives %v", err, wantErr)
	}
}

// encodedSeedTokens are tokens that exercise every field of the view: a
// key on an end tag, a run pointer, and text and attribute values that need
// escaping.
func encodedSeedTokens() []Token {
	return []Token{
		{Kind: KindStart, Name: "a", Attrs: []Attr{{"x", `1&2<3>4"5`}, {"y", ""}}, Key: "k", HasKey: true},
		{Kind: KindText, Text: `a & b < c > d "e"`},
		{Kind: KindStart, Name: "b"},
		{Kind: KindRunPtr, Run: 7, Name: "r", Key: "rk", HasKey: true},
		{Kind: KindEnd, Name: "b", Key: "end-key", HasKey: true},
		{Kind: KindEnd, Name: "a"},
	}
}

// FuzzEncoded checks the token view against the decoder on arbitrary
// bytes, token by token: Scan must give the decoder's verdict and token
// length; an accepted view must have the decoded kind, key and run ID; the
// writer must serialize it exactly as it serializes the decoded token with
// the key dropped, compact and indented; and the view's two re-encodings
// must be AppendToken's for the correspondingly edited token, as must the
// re-encodings the sort stages use: a run pointer for a tag, the token
// renamed, a start tag with one more attribute. Rekey's view must be the
// one Scan makes of its bytes, and Attr must find each attribute's first
// value.
// Non-minimal
// varints are accepted by both the decoder and the view and are copied by
// the re-encodings, so for a token AppendToken would not write byte for
// byte, the re-encodings must decode to the edited token instead.
func FuzzEncoded(f *testing.F) {
	var stream []byte
	for _, tok := range encodedSeedTokens() {
		enc := AppendToken(nil, tok)
		f.Add(enc)
		stream = append(stream, enc...)
	}
	f.Add(stream)
	corrupt := corruptCounts()
	f.Add(corrupt["attribute count"])
	f.Add(corrupt["text length"])
	f.Fuzz(func(t *testing.T, data []byte) {
		var compact, indented, wantCompact, wantIndented bytes.Buffer
		writers := []struct{ got, want *Writer }{
			{NewWriter(&compact), NewWriter(&wantCompact)},
			{NewIndentWriter(&indented, "  "), NewIndentWriter(&wantIndented, "  ")},
		}
		var d Decoder
		for off := 0; off < len(data); {
			var v Encoded
			n, ok := v.Scan(data[off:])
			r := bytes.NewReader(data[off:])
			tok, err := d.ReadToken(r)
			if ok != (err == nil) {
				t.Fatalf("at byte %d: Scan ok=%v, decoder %v", off, ok, err)
			}
			if !ok {
				break
			}
			if consumed := len(data) - off - r.Len(); n != consumed {
				t.Fatalf("at byte %d: Scan length %d, decoder read %d", off, n, consumed)
			}
			if v.Kind() != tok.Kind || v.HasKey() != tok.HasKey || string(v.Key()) != tok.Key || v.Run() != tok.Run {
				t.Fatalf("at byte %d: view kind %v key %v %q run %d, decoded %+v",
					off, v.Kind(), v.HasKey(), v.Key(), v.Run(), tok)
			}
			bare := tok
			bare.HasKey, bare.Key = false, ""
			for _, w := range writers {
				errGot, errWant := w.got.WriteEncoded(&v), w.want.WriteToken(bare)
				if errString(errGot) != errString(errWant) {
					t.Fatalf("at byte %d: WriteEncoded %v, WriteToken %v", off, errGot, errWant)
				}
			}

			canonical := bytes.Equal(AppendToken(nil, tok), v.Bytes())
			rekeyed := tok
			rekeyed.Key, rekeyed.HasKey = "new&key", true
			checkReencoding(t, "AppendWithKey", v.AppendWithKey(nil, []byte(rekeyed.Key)), rekeyed, canonical)
			var rv Encoded
			rb := rv.Rekey([]byte("prefix"), &v, []byte(rekeyed.Key))
			var scanned Encoded
			if _, ok := scanned.Scan(rb[len("prefix"):]); !ok || !reflect.DeepEqual(rv, scanned) {
				t.Fatalf("at byte %d: Rekey's view %+v, scanning its bytes gives %+v", off, rv, scanned)
			}
			if tok.Kind != KindText {
				ptr := Token{Kind: KindRunPtr, Run: 1 << 40, Name: tok.Name, Key: tok.Key, HasKey: true}
				checkReencoding(t, "AppendRunPtr", v.AppendRunPtr(nil, ptr.Run), ptr, true)
			}
			renamed := tok
			if tok.Kind != KindText {
				renamed.Name = "N"
			}
			renamed.Attrs = nil
			for _, a := range tok.Attrs {
				renamed.Attrs = append(renamed.Attrs, Attr{"x" + a.Name, a.Value})
			}
			got, err := v.AppendRenamed(nil, []byte("N"), func(a []byte) ([]byte, error) { return append([]byte("x"), a...), nil })
			if err != nil {
				t.Fatal(err)
			}
			checkReencoding(t, "AppendRenamed", got, renamed, canonical)
			if tok.Kind == KindStart {
				end := Token{Kind: KindEnd, Name: tok.Name}
				checkReencoding(t, "AppendEnd", v.AppendEnd(nil), end, true)
				stamped := tok
				stamped.Attrs = append(tok.Attrs[:len(tok.Attrs):len(tok.Attrs)], Attr{"stamp", "007"})
				checkReencoding(t, "AppendAttr", v.AppendAttr(nil, []byte("stamp"), []byte("007")), stamped, canonical)
				absent := "absent"
				for slices.ContainsFunc(tok.Attrs, func(b Attr) bool { return b.Name == absent }) {
					absent += "x"
				}
				if _, ok := v.Attr(absent); ok {
					t.Fatalf("at byte %d: Attr found the absent attribute %q", off, absent)
				}
				for i, a := range tok.Attrs {
					first := slices.IndexFunc(tok.Attrs, func(b Attr) bool { return b.Name == a.Name }) == i
					if got, ok := v.Attr(a.Name); !ok || first && string(got) != a.Value {
						t.Fatalf("at byte %d: Attr(%q) = %q, %v, want %q", off, a.Name, got, ok, a.Value)
					}
				}
			}
			off += n
		}
		for _, w := range writers {
			if errString(w.got.Close()) != errString(w.want.Close()) {
				t.Fatal("Close verdicts differ")
			}
		}
		if compact.String() != wantCompact.String() || indented.String() != wantIndented.String() {
			t.Fatalf("WriteEncoded wrote %q / %q, WriteToken %q / %q",
				compact.String(), indented.String(), wantCompact.String(), wantIndented.String())
		}
	})
}

// checkReencoding compares a view's re-encoding with AppendToken of the
// edited token: byte for byte when the view's own bytes were canonical,
// and after decoding otherwise.
func checkReencoding(t *testing.T, name string, got []byte, want Token, canonical bool) {
	t.Helper()
	if canonical {
		if w := AppendToken(nil, want); !bytes.Equal(got, w) {
			t.Fatalf("%s wrote %x, AppendToken %x", name, got, w)
		}
		return
	}
	var d Decoder
	back, err := d.DecodeToken(got)
	if err != nil || !reflect.DeepEqual(back, want) {
		t.Fatalf("%s wrote %x, decoding to %+v (%v), want %+v", name, got, back, err, want)
	}
}
