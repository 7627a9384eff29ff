package crdt

import (
	"testing"
	"testing/quick"

	"repro/internal/simrand"
)

func TestGCounterBasics(t *testing.T) {
	c := NewGCounter()
	c.Inc("a", 3)
	c.Inc("b", 4)
	c.Inc("a", 1)
	if c.Value() != 8 {
		t.Errorf("Value = %d, want 8", c.Value())
	}
}

func TestGCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative increment accepted")
		}
	}()
	NewGCounter().Inc("a", -1)
}

func TestGCounterMergeTakesMax(t *testing.T) {
	a, b := NewGCounter(), NewGCounter()
	a.Inc("r1", 5)
	b.Inc("r1", 3) // stale view of r1
	b.Inc("r2", 2)
	a.Merge(b)
	if a.Value() != 7 { // max(5,3) + 2
		t.Errorf("merged value = %d, want 7", a.Value())
	}
}

func TestPNCounter(t *testing.T) {
	c := NewPNCounter()
	c.Add("a", 10)
	c.Add("b", -4)
	c.Add("a", -1)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestLWWRegister(t *testing.T) {
	var r LWWRegister
	r.Set("a", 10, "first")
	r.Set("b", 5, "stale") // older timestamp: ignored
	if r.Get() != "first" {
		t.Errorf("Get = %q", r.Get())
	}
	r.Set("b", 20, "second")
	if r.Get() != "second" {
		t.Errorf("Get = %q", r.Get())
	}
	// Tie on timestamp: higher replica id wins, deterministically.
	var x, y LWWRegister
	x.Set("a", 7, "from-a")
	y.Set("b", 7, "from-b")
	x.Merge(&y)
	y2 := LWWRegister{}
	y2.Set("b", 7, "from-b")
	x2 := LWWRegister{}
	x2.Set("a", 7, "from-a")
	y2.Merge(&x2)
	if x.Get() != y2.Get() {
		t.Errorf("tie resolution diverged: %q vs %q", x.Get(), y2.Get())
	}
}

func TestORSetAddWins(t *testing.T) {
	// Replica A adds x; replica B (having seen nothing) also adds x and
	// then A removes its observed copy. After merge, B's concurrent add
	// survives — add-wins semantics.
	a, b := NewORSet(), NewORSet()
	a.Add("a", "x")
	a.Remove("x")
	b.Add("b", "x")
	a.Merge(b)
	if !a.Contains("x") {
		t.Error("concurrent add did not win over observed remove")
	}
}

func TestORSetRemoveObserved(t *testing.T) {
	s := NewORSet()
	s.Add("a", "x")
	s.Add("a", "y")
	s.Remove("x")
	if s.Contains("x") {
		t.Error("observed remove failed")
	}
	els := s.Elements()
	if len(els) != 1 || els[0] != "y" {
		t.Errorf("Elements = %v", els)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := NewPNCounter()
	c.Add("a", 7)
	c.Add("b", -2)
	got, err := UnmarshalPNCounter(Marshal(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Value() != 5 {
		t.Errorf("round-tripped value = %d", got.Value())
	}
	g := NewGCounter()
	g.Inc("a", 3)
	got2, err := UnmarshalGCounter(Marshal(g))
	if err != nil || got2.Value() != 3 {
		t.Errorf("gcounter round trip: %v, %v", got2, err)
	}
	if _, err := UnmarshalGCounter([]byte("not json")); err == nil {
		t.Error("bad input accepted")
	}
}

// --- semilattice laws, checked by property tests ---

func randGCounter(rng *simrand.RNG) *GCounter {
	c := NewGCounter()
	replicas := []string{"r1", "r2", "r3"}
	for i := 0; i < rng.Intn(6); i++ {
		c.Inc(replicas[rng.Intn(3)], int64(rng.Intn(10)))
	}
	return c
}

func cloneG(c *GCounter) *GCounter {
	out := NewGCounter()
	out.Merge(c)
	return out
}

func equalG(a, b *GCounter) bool {
	// Zero entries may differ structurally; compare semantically.
	ac, bc := countsOf(a), countsOf(b)
	keys := map[string]bool{}
	for k := range ac {
		keys[k] = true
	}
	for k := range bc {
		keys[k] = true
	}
	for k := range keys {
		if ac[k] != bc[k] {
			return false
		}
	}
	return true
}

func TestQuickGCounterMergeLaws(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		a, b, c := randGCounter(rng), randGCounter(rng), randGCounter(rng)

		// Commutativity: a⊔b == b⊔a
		ab := cloneG(a)
		ab.Merge(b)
		ba := cloneG(b)
		ba.Merge(a)
		if !equalG(ab, ba) {
			return false
		}
		// Associativity: (a⊔b)⊔c == a⊔(b⊔c)
		abc1 := cloneG(ab)
		abc1.Merge(c)
		bc := cloneG(b)
		bc.Merge(c)
		abc2 := cloneG(a)
		abc2.Merge(bc)
		if !equalG(abc1, abc2) {
			return false
		}
		// Idempotence: a⊔a == a
		aa := cloneG(a)
		aa.Merge(a)
		return equalG(aa, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickLWWConvergence(t *testing.T) {
	// Any interleaving of the same writes converges to the same value.
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		type w struct {
			replica string
			stamp   int64
			val     string
		}
		var writes []w
		for i := 0; i < rng.Intn(8)+2; i++ {
			writes = append(writes, w{
				replica: string(rune('a' + rng.Intn(3))),
				stamp:   int64(rng.Intn(5)),
				val:     string(rune('A' + rng.Intn(26))),
			})
		}
		apply := func(order []int) string {
			var r LWWRegister
			for _, i := range order {
				r.Set(writes[i].replica, writes[i].stamp, writes[i].val)
			}
			return r.Get()
		}
		fwd := make([]int, len(writes))
		rev := make([]int, len(writes))
		for i := range writes {
			fwd[i] = i
			rev[len(writes)-1-i] = i
		}
		shuffled := rng.Perm(len(writes))
		base := apply(fwd)
		return apply(rev) == base && apply(shuffled) == base
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickORSetMergeConverges(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		a, b := NewORSet(), NewORSet()
		elements := []string{"x", "y", "z"}
		for i := 0; i < rng.Intn(10)+2; i++ {
			e := elements[rng.Intn(3)]
			switch rng.Intn(3) {
			case 0:
				a.Add("a", e)
			case 1:
				b.Add("b", e)
			default:
				if rng.Intn(2) == 0 {
					a.Remove(e)
				} else {
					b.Remove(e)
				}
			}
		}
		// Merge both ways; memberships must agree.
		am := NewORSet()
		am.Merge(a)
		am.Merge(b)
		bm := NewORSet()
		bm.Merge(b)
		bm.Merge(a)
		ae, be := am.Elements(), bm.Elements()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if ae[i] != be[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkGCounterMergeGrow joins into a receiver with spare slot capacity
// a counter holding one replica the receiver lacks, in the middle of its
// slots: the join is written in place and must allocate nothing.
func BenchmarkGCounterMergeGrow(b *testing.B) {
	other := gcounterOf(map[string]int64{"r0": 2, "r1": 2, "r2": 2, "r3": 2})
	base := []slot{{"r0", 1}, {"r1", 3}, {"r3", 1}}
	c := &GCounter{slots: make([]slot, 0, 4)}
	for i := 0; i < b.N; i++ {
		c.slots = append(c.slots[:0], base...)
		if changed, _ := c.Merge(other); !changed {
			b.Fatal("join reported no change")
		}
	}
}
