package wordfilter

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIsDirty(t *testing.T) {
	m := NewModel([]string{"darn", "heck"})
	cases := []struct {
		word string
		want bool
	}{
		{"darn", true},
		{"DARN", true},
		{"darn!", true},
		{"(heck)", true},
		{"hello", false},
		{"darnit", false},
	}
	for _, c := range cases {
		if got := m.IsDirty(c.word); got != c.want {
			t.Errorf("IsDirty(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestCleanReplacesWithPunctuation(t *testing.T) {
	m := DefaultModel()
	out, n := m.Clean("what the heck is this lousy thing")
	if n != 2 {
		t.Fatalf("replaced %d words, want 2", n)
	}
	if strings.Contains(out, "heck") || strings.Contains(out, "lousy") {
		t.Errorf("dirty words survived: %q", out)
	}
	if !strings.Contains(out, "!@#$") {
		t.Errorf("no punctuation mask in %q", out)
	}
}

func TestCleanPreservesCleanDocs(t *testing.T) {
	m := DefaultModel()
	doc := "a perfectly wholesome document"
	out, n := m.Clean(doc)
	if n != 0 || out != doc {
		t.Errorf("Clean(%q) = %q, %d", doc, out, n)
	}
}

func TestMaskPreservesLengthAndTail(t *testing.T) {
	m := NewModel([]string{"darn"})
	out, n := m.Clean("darn!")
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	if len(out) != len("darn!") {
		t.Errorf("mask changed length: %q", out)
	}
	if !strings.HasSuffix(out, "!") {
		t.Errorf("trailing punctuation lost: %q", out)
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	m := DefaultModel()
	m2 := Parse(m.Serialize())
	if len(m2.blacklist) != len(m.blacklist) {
		t.Fatalf("sizes differ: %d vs %d", len(m2.blacklist), len(m.blacklist))
	}
	for _, w := range DefaultBlacklist() {
		if !m2.IsDirty(w) {
			t.Errorf("round-tripped model lost %q", w)
		}
	}
}

func TestSerializeDeterministic(t *testing.T) {
	a := string(DefaultModel().Serialize())
	b := string(DefaultModel().Serialize())
	if a != b {
		t.Error("Serialize is not deterministic")
	}
}

func TestNewModelIgnoresBlanks(t *testing.T) {
	m := NewModel([]string{"", "  ", "ok"})
	if len(m.blacklist) != 1 {
		t.Errorf("Size = %d, want 1", len(m.blacklist))
	}
}

// Property: cleaning is idempotent and never reintroduces dirty words.
func TestQuickCleanIdempotent(t *testing.T) {
	m := DefaultModel()
	prop := func(wordsRaw []uint8) bool {
		vocab := append(DefaultBlacklist(), "alpha", "beta", "gamma", "delta")
		var words []string
		for _, w := range wordsRaw {
			words = append(words, vocab[int(w)%len(vocab)])
		}
		doc := strings.Join(words, " ")
		once, _ := m.Clean(doc)
		twice, n2 := m.Clean(once)
		return once == twice && n2 == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
