// Package reviews generates the synthetic stand-in for the Amazon product
// review corpus the paper trains on (public data we do not ship: 90 GB of
// reviews, featurized with a 6,787-word bag-of-words vocabulary, labeled
// with customer ratings).
//
// The generator is deterministic and produces reviews whose rating is a
// learnable function of their word content (sentiment words shift the
// rating), so the reproduction's MLP has real signal to fit — the
// substitution preserves the workload's character: wide sparse-ish feature
// vectors, a regression target, and a corpus measured in bytes.
package reviews

import (
	"fmt"
	"math"

	"repro/internal/simrand"
)

// Paper-scale constants from §3.1.
const (
	PaperFeatures     = 6787
	PaperCorpusBytes  = int64(90e9)
	PaperBatchBytes   = int64(100e6)
	PaperBatchPerPass = int(PaperCorpusBytes / PaperBatchBytes) // 900 batches/epoch
)

// Review is one featurized example.
type Review struct {
	Features []float64 // bag-of-words counts, normalized by review length
	Rating   float64   // 1..5 target
}

// Generator deterministically synthesizes featurized reviews.
type Generator struct {
	rng       *simrand.RNG
	vocab     int
	nPositive int // vocab ids [0, nPositive) carry +sentiment
	nNegative int // vocab ids [nPositive, nPositive+nNegative) carry -sentiment
	wordsPer  int // words per review
}

// NewGenerator creates a generator over a vocabulary of the given size.
// Tests use small vocabularies; the simulation's timing uses PaperFeatures.
func NewGenerator(seed uint64, vocabSize int) *Generator {
	if vocabSize < 10 {
		panic("reviews: vocabulary too small")
	}
	return &Generator{
		rng:       simrand.New(seed),
		vocab:     vocabSize,
		nPositive: vocabSize / 10,
		nNegative: vocabSize / 10,
		wordsPer:  40,
	}
}

// Next synthesizes one review. Word frequencies follow a Zipf-like decay;
// the rating is 3 plus the sentiment balance, clamped to [1, 5], with mild
// noise.
func (g *Generator) Next() Review {
	features := make([]float64, g.vocab)
	sentiment := 0.0
	// Bias this review toward positive or negative vocabulary.
	lean := g.rng.NormFloat64()
	for w := 0; w < g.wordsPer; w++ {
		var id int
		r := g.rng.Float64()
		switch {
		case r < 0.15+0.1*math.Tanh(lean): // positive word
			id = g.rng.Intn(g.nPositive)
			sentiment++
		case r < 0.30: // negative word
			id = g.nPositive + g.rng.Intn(g.nNegative)
			sentiment--
		default: // neutral word, Zipf-ish: low ids more frequent
			id = g.nPositive + g.nNegative +
				int(float64(g.vocab-g.nPositive-g.nNegative)*math.Pow(g.rng.Float64(), 2))
			if id >= g.vocab {
				id = g.vocab - 1
			}
		}
		features[id]++
	}
	for i := range features {
		features[i] /= float64(g.wordsPer)
	}
	rating := 3 + sentiment/6 + 0.1*g.rng.NormFloat64()
	if rating < 1 {
		rating = 1
	}
	if rating > 5 {
		rating = 5
	}
	return Review{Features: features, Rating: rating}
}

// Batch synthesizes n reviews as training matrices.
func (g *Generator) Batch(n int) (X, Y [][]float64) {
	X = make([][]float64, n)
	Y = make([][]float64, n)
	for i := 0; i < n; i++ {
		r := g.Next()
		X[i] = r.Features
		Y[i] = []float64{r.Rating}
	}
	return X, Y
}

// BatchKey names the corpus batch with the given index, as staged in the
// object store ("reviews/batch-0042").
func BatchKey(i int) string { return fmt.Sprintf("reviews/batch-%04d", i) }
