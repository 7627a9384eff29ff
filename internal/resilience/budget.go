package resilience

// Budget is a Finagle-style retry budget: every first attempt deposits a
// fraction of a token, every retry withdraws a whole one, and the balance
// is capped at a burst allowance. Under healthy traffic the budget stays
// full and retries flow freely; during an outage, when *every* call wants
// to retry, withdrawals outpace deposits and the budget throttles the
// client population to ~ratio extra load — the cap that keeps retries from
// multiplying an outage. Pure arithmetic (no clock, no refill goroutine),
// so shared budgets are deterministic on the sim timeline.
type Budget struct {
	ratio   float64
	burst   float64
	balance float64
}

// NewBudget creates a budget granting ratio retries per call (e.g. 0.1 =
// 10% extra attempts) with an initial and maximum balance of burst tokens.
// A burst < 1 would deny every retry; values below 1 are raised to 1.
func NewBudget(ratio float64, burst float64) *Budget {
	if burst < 1 {
		burst = 1
	}
	return &Budget{ratio: ratio, burst: burst, balance: burst}
}

// Deposit credits one call's worth of retry allowance.
func (b *Budget) Deposit() {
	b.balance += b.ratio
	if b.balance > b.burst {
		b.balance = b.burst
	}
}

// TryTake withdraws one retry token, reporting whether one was available.
func (b *Budget) TryTake() bool {
	if b.balance < 1 {
		return false
	}
	b.balance--
	return true
}

// Balance returns the current token balance.
func (b *Budget) Balance() float64 { return b.balance }
