package xmltok

import (
	"bytes"
	"strconv"
	"testing"
	"time"
)

// TestManyFieldTokenAssemblesInFewScans: a token that runs past its
// window is scanned a few times as it is assembled, not once per field.
// A start tag of 20,000 attributes read through 4 KiB windows takes
// milliseconds; when each scan asked only for the end of the field that
// ran short, and so was repeated once per field, it took seconds.
func TestManyFieldTokenAssemblesInFewScans(t *testing.T) {
	tok := Token{Kind: KindStart, Name: "a"}
	for i := range 20000 {
		tok.Attrs = append(tok.Attrs, Attr{"a" + strconv.Itoa(i), "v"})
	}
	enc := AppendToken(nil, tok)
	start := time.Now()
	var d Decoder
	v, err := d.ReadEncoded(&chunkWindow{data: enc, k: 4096})
	if err != nil || !bytes.Equal(v.Bytes(), enc) {
		t.Fatalf("ReadEncoded = %v, want the token's %d bytes", err, len(enc))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a %d-byte start tag of %d attributes took %v to assemble, want well under a second",
			len(enc), len(tok.Attrs), elapsed)
	}
}
