// Package wordfilter implements the prediction-serving case study's
// workload: a classifier that marks each word of a document "dirty" or not
// against a blacklist and rewrites dirty words as punctuation — exactly the
// "trivial classifier" the paper runs behind SQS batching.
package wordfilter

import (
	"sort"
	"strings"
)

// Model is a blacklist classifier.
type Model struct {
	blacklist map[string]struct{}
}

// NewModel builds a model from a blacklist (matching is case-insensitive).
func NewModel(words []string) *Model {
	m := &Model{blacklist: make(map[string]struct{}, len(words))}
	for _, w := range words {
		w = strings.ToLower(strings.TrimSpace(w))
		if w != "" {
			m.blacklist[w] = struct{}{}
		}
	}
	return m
}

// DefaultBlacklist is the word list used by the experiments (mild stand-ins;
// the paper's actual list is not published).
func DefaultBlacklist() []string {
	return []string{
		"darn", "heck", "blast", "drat", "crud",
		"bogus", "lousy", "rotten", "garbage", "junk",
	}
}

// DefaultModel returns a model over DefaultBlacklist.
func DefaultModel() *Model { return NewModel(DefaultBlacklist()) }

// IsDirty classifies one word (punctuation-insensitive).
func (m *Model) IsDirty(word string) bool {
	_, ok := m.blacklist[normalize(word)]
	return ok
}

// Clean rewrites every dirty word in doc as punctuation marks of the same
// length and returns the cleaned document and the number of replacements.
func (m *Model) Clean(doc string) (string, int) {
	words := strings.Fields(doc)
	replaced := 0
	for i, w := range words {
		if m.IsDirty(w) {
			words[i] = mask(w)
			replaced++
		}
	}
	if replaced == 0 {
		return doc, 0
	}
	return strings.Join(words, " "), replaced
}

// normalize lowercases and strips leading/trailing punctuation.
func normalize(w string) string {
	return strings.ToLower(strings.Trim(w, ".,!?;:'\"()[]{}"))
}

// mask replaces a word's letters with cycling punctuation, preserving any
// trailing punctuation of the original token.
func mask(w string) string {
	marks := []byte{'!', '@', '#', '$', '%'}
	core := strings.TrimRight(w, ".,!?;:'\"")
	tail := w[len(core):]
	out := make([]byte, len(core))
	for i := range out {
		out[i] = marks[i%len(marks)]
	}
	return string(out) + tail
}

// Serialize encodes the model for storage (one word per line, sorted), the
// artifact the unoptimized Lambda variant fetches from S3 on every
// invocation.
func (m *Model) Serialize() []byte {
	words := make([]string, 0, len(m.blacklist))
	for w := range m.blacklist {
		words = append(words, w)
	}
	sort.Strings(words)
	return []byte(strings.Join(words, "\n"))
}

// Parse decodes a serialized model.
func Parse(data []byte) *Model {
	return NewModel(strings.Split(string(data), "\n"))
}
