package keys

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/em"
	"nexsort/internal/xmltok"
	"nexsort/internal/xstack"
)

func TestSourceString(t *testing.T) {
	cases := map[string]Source{
		"name()":      ByTag(),
		"@ID":         ByAttr("ID"),
		"text()":      ByText(),
		"a/b/text()":  ByPath("a", "b"),
		"name/text()": ByPath("name"),
	}
	for want, src := range cases {
		if got := src.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestCriterionRules(t *testing.T) {
	c := &Criterion{Rules: []Rule{
		{Tag: "employee", Source: ByAttr("ID")},
		{Tag: "region", Source: ByAttr("name")},
		{Tag: "", Source: ByTag()},
	}}
	if src, ok := c.SourceFor("employee"); !ok || src.Attr != "ID" {
		t.Errorf("employee rule = %v, %v", src, ok)
	}
	if src, ok := c.SourceFor("anything"); !ok || src.Kind != SrcTag {
		t.Errorf("wildcard rule = %v, %v", src, ok)
	}
	c2 := &Criterion{Rules: []Rule{{Tag: "x", Source: ByTag()}}}
	if _, ok := c2.SourceFor("y"); ok {
		t.Error("non-matching tag should report no rule")
	}
}

func TestMaxPathDepth(t *testing.T) {
	c := &Criterion{Rules: []Rule{
		{Tag: "a", Source: ByAttr("x")},
		{Tag: "b", Source: ByPath("p", "q", "r")},
		{Tag: "c", Source: ByText()},
	}}
	if got := c.MaxPathDepth(); got != 3 {
		t.Errorf("MaxPathDepth = %d, want 3", got)
	}
	if got := ByAttrOrTag("ID").MaxPathDepth(); got != 0 {
		t.Errorf("attr criterion MaxPathDepth = %d, want 0", got)
	}
}

func TestClip(t *testing.T) {
	c := &Criterion{KeyCap: 4}
	if got := c.Clip("abcdef"); got != "abcd" {
		t.Errorf("Clip = %q", got)
	}
	if got := c.Clip("ab"); got != "ab" {
		t.Errorf("Clip = %q", got)
	}
	var def Criterion
	long := strings.Repeat("x", 100)
	if got := def.Clip(long); len(got) != DefaultKeyCap {
		t.Errorf("default clip length = %d", len(got))
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		ka   string
		pa   int64
		kb   string
		pb   int64
		want int
	}{
		{"a", 0, "b", 0, -1},
		{"b", 0, "a", 0, 1},
		{"a", 1, "a", 2, -1},
		{"a", 2, "a", 1, 1},
		{"a", 1, "a", 1, 0},
		{"", 5, "a", 1, -1},   // empty key sorts first
		{"10", 0, "9", 0, -1}, // lexicographic, not numeric
	}
	for _, tc := range cases {
		if got := Compare(tc.ka, tc.pa, tc.kb, tc.pb); got != tc.want {
			t.Errorf("Compare(%q,%d,%q,%d) = %d, want %d", tc.ka, tc.pa, tc.kb, tc.pb, got, tc.want)
		}
	}
}

// annotateDoc runs a document through a fresh annotator and returns the
// key recorded on each element's end tag, keyed by order of closing.
func annotateDoc(t *testing.T, c *Criterion, doc string, spill SpillStack) []string {
	t.Helper()
	a := NewAnnotator(c, spill)
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	var endKeys []string
	for {
		tok, err := p.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tok, err = a.Annotate(tok)
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind() == xmltok.KindEnd {
			if !tok.HasKey() {
				t.Fatalf("end tag </%s> missing key annotation", tok.Name())
			}
			endKeys = append(endKeys, string(tok.Name())+"="+string(tok.Key()))
		}
		if tok.Kind() == xmltok.KindStart {
			if src, ok := c.SourceFor(string(tok.Name())); ok && src.StartResolvable() && !tok.HasKey() {
				t.Fatalf("start tag <%s> missing resolvable key", tok.Name())
			}
		}
	}
	return endKeys
}

// view returns a view of tok's encoding.
func view(tok xmltok.Token) *xmltok.Encoded {
	var v xmltok.Encoded
	v.Scan(xmltok.AppendToken(nil, tok))
	return &v
}

func TestAnnotatorAttrKeys(t *testing.T) {
	doc := `<company><region name="NE"><branch name="Durham"/></region><region name="AC"/></company>`
	c := &Criterion{Rules: []Rule{{Tag: "", Source: ByAttr("name")}}}
	got := annotateDoc(t, c, doc, nil)
	want := []string{"branch=Durham", "region=NE", "region=AC", "company="}
	assertStrings(t, got, want)
}

func TestAnnotatorTextKeys(t *testing.T) {
	doc := `<list><item>beta</item><item>alpha<sub>no</sub></item><item><sub>skip</sub>gamma</item></list>`
	c := &Criterion{Rules: []Rule{{Tag: "item", Source: ByText()}}}
	got := annotateDoc(t, c, doc, nil)
	want := []string{"item=beta", "sub=", "item=alpha", "sub=", "item=gamma", "list="}
	assertStrings(t, got, want)
}

func TestAnnotatorPathKeys(t *testing.T) {
	doc := `<staff>
	  <employee ID="2"><personalInfo><name><lastName>Ng</lastName></name></personalInfo></employee>
	  <employee ID="1"><personalInfo><note>x</note><name><first>A</first><lastName>Wu</lastName></name></personalInfo></employee>
	  <employee ID="3"><personalInfo><name><lastName><x/>deep</lastName></name></personalInfo></employee>
	  <employee ID="4"><other><name><lastName>Wrong</lastName></name></other></employee>
	</staff>`
	c := &Criterion{Rules: []Rule{{Tag: "employee", Source: ByPath("personalInfo", "name", "lastName")}}}
	got := annotateDoc(t, c, doc, nil)
	var empKeys []string
	for _, k := range got {
		if strings.HasPrefix(k, "employee=") {
			empKeys = append(empKeys, k)
		}
	}
	// Employee 3's lastName has an element before its text; the text is
	// still a direct child of the matched element, so it is captured.
	// Employee 4's chain goes through <other>, which does not match.
	want := []string{"employee=Ng", "employee=Wu", "employee=deep", "employee="}
	assertStrings(t, empKeys, want)
}

func TestAnnotatorPathFirstMatchWins(t *testing.T) {
	doc := `<e><a><b></b></a><a><b>second</b></a><a><b>third</b></a></e>`
	c := &Criterion{Rules: []Rule{{Tag: "e", Source: ByPath("a", "b")}}}
	got := annotateDoc(t, c, doc, nil)
	if got[len(got)-1] != "e=second" {
		t.Errorf("e key = %q, want e=second (first complete match in document order)", got[len(got)-1])
	}
}

func TestAnnotatorPathDepthAlignment(t *testing.T) {
	// A 'b' nested one level too deep must not match path a/b.
	doc := `<e><a><wrap><b>nope</b></wrap></a><a><b>yes</b></a></e>`
	c := &Criterion{Rules: []Rule{{Tag: "e", Source: ByPath("a", "b")}}}
	got := annotateDoc(t, c, doc, nil)
	if got[len(got)-1] != "e=yes" {
		t.Errorf("e key = %q, want e=yes", got[len(got)-1])
	}
}

func TestAnnotatorKeyCapTruncation(t *testing.T) {
	doc := `<e name="` + strings.Repeat("k", 100) + `"/>`
	c := &Criterion{Rules: []Rule{{Tag: "", Source: ByAttr("name")}}, KeyCap: 10}
	got := annotateDoc(t, c, doc, nil)
	if got[0] != "e="+strings.Repeat("k", 10) {
		t.Errorf("truncated key = %q", got[0])
	}
}

func TestAnnotatorMismatchedEnd(t *testing.T) {
	a := NewAnnotator(ByAttrOrTag("x"), nil)
	if _, err := a.Annotate(view(xmltok.Token{Kind: xmltok.KindEnd, Name: "ghost"})); err == nil {
		t.Error("end without start should fail")
	}
}

// deepDoc builds a document nested n levels with a path-keyed leaf payload.
func deepDoc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString(`<item ID="x"/>`)
	for i := 0; i < n; i++ {
		sb.WriteString("</d>")
	}
	return sb.String()
}

// TestAnnotatorSpill verifies that deep documents exercise the spill stack
// and produce the same annotations as the in-memory mode.
func TestAnnotatorSpill(t *testing.T) {
	c := &Criterion{Rules: []Rule{{Tag: "item", Source: ByAttr("ID")}, {Tag: "", Source: ByText()}}}
	doc := deepDoc(100)

	inMem := annotateDoc(t, c, doc, nil)

	stats := em.NewStats()
	dev := em.NewDevice(em.NewMemBackend(), 256, stats)
	spill, err := xstack.NewRecordStack(dev, em.CatPathStack, nil, 2, c.StateSize())
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	spilled := annotateDoc(t, c, doc, spill)

	assertStrings(t, spilled, inMem)
	if stats.IOs(em.CatPathStack) == 0 {
		t.Error("expected spill traffic on a 100-deep document with a 256-byte spill block")
	}
	if spill.Len() != 0 {
		t.Errorf("spill stack not drained: %d records left", spill.Len())
	}
}

// TestAnnotatorSpillEquivalenceQuick compares spilled and in-memory
// annotation on random documents.
func TestAnnotatorSpillEquivalenceQuick(t *testing.T) {
	c := &Criterion{Rules: []Rule{
		{Tag: "a", Source: ByPath("b", "c")},
		{Tag: "b", Source: ByText()},
		{Tag: "", Source: ByAttr("k")},
	}}
	f := func(seed int64) bool {
		doc := randomDoc(rand.New(rand.NewSource(seed)), 40)
		inMem := collectKeys(c, doc, nil)
		dev := em.NewDevice(em.NewMemBackend(), 128, nil)
		spill, err := xstack.NewRecordStack(dev, em.CatPathStack, nil, 2, c.StateSize())
		if err != nil {
			return false
		}
		defer spill.Close()
		ext := collectKeys(c, doc, spill)
		if len(inMem) != len(ext) {
			return false
		}
		for i := range inMem {
			if inMem[i] != ext[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func collectKeys(c *Criterion, doc string, spill SpillStack) []string {
	a := NewAnnotator(c, spill)
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	var out []string
	for {
		tok, err := p.NextEncoded()
		if err != nil {
			return out
		}
		tok, err = a.Annotate(tok)
		if err != nil {
			return nil
		}
		if tok.Kind() == xmltok.KindEnd {
			out = append(out, string(tok.Name())+"="+string(tok.Key()))
		}
	}
}

// randomDoc builds a random nested document using tags a, b, c with
// occasional text and attributes.
func randomDoc(rng *rand.Rand, maxElems int) string {
	var sb strings.Builder
	tags := []string{"a", "b", "c"}
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		if budget <= 0 {
			return budget
		}
		tag := tags[rng.Intn(len(tags))]
		sb.WriteString("<" + tag)
		if rng.Intn(2) == 0 {
			sb.WriteString(` k="v` + string(rune('0'+rng.Intn(10))) + `"`)
		}
		sb.WriteString(">")
		budget--
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(3) == 0 {
				sb.WriteString("t" + string(rune('0'+rng.Intn(10))))
			} else if depth < 30 {
				budget = emit(depth+1, budget)
			}
		}
		sb.WriteString("</" + tag + ">")
		return budget
	}
	sb.WriteString("<root>")
	budget := 1 + rng.Intn(maxElems)
	for budget > 0 {
		budget = emit(1, budget)
	}
	sb.WriteString("</root>")
	return sb.String()
}

func TestMatcherMarshalRoundTrip(t *testing.T) {
	c := &Criterion{Rules: []Rule{{Tag: "e", Source: ByPath("a", "b")}}, KeyCap: 16}
	m := c.NewMatcher(view(xmltok.Token{Kind: xmltok.KindStart, Name: "e"}), nil)
	m.OnStart(c, []byte("a"), 1)
	buf := make([]byte, c.StateSize())
	if err := m.MarshalTo(c, buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMatcher(c, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip: got %+v, want %+v", got, m)
	}
	// Continue evaluation on the unmarshalled matcher.
	got.OnStart(c, []byte("b"), 2)
	got.OnText(c, []byte("found"), 2)
	if key, ok := got.Key(); !ok || string(key) != "found" {
		t.Errorf("key after resume = %q, %v", key, ok)
	}
	if err := m.MarshalTo(c, buf[:3]); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := UnmarshalMatcher(c, buf[:3], nil); err == nil {
		t.Error("short unmarshal should fail")
	}
}

func TestMatcherNoRule(t *testing.T) {
	c := &Criterion{Rules: []Rule{{Tag: "only", Source: ByTag()}}}
	m := c.NewMatcher(view(xmltok.Token{Kind: xmltok.KindStart, Name: "other"}), nil)
	if !m.done {
		t.Error("no-rule matcher should be done immediately")
	}
	if key := m.Finalize(); len(key) != 0 {
		t.Errorf("no-rule key = %q", key)
	}
}

func assertStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %q, want %q\nfull: %v vs %v", i, got[i], want[i], got, want)
		}
	}
}
