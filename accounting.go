package hcoc

import "hcoc/internal/privacy"

// Accountant is an explicit epsilon ledger for multi-stage pipelines
// (e.g. combining EstimateK, ChooseMethod, PrivateGroupCounts and
// Release under one total budget). Spend reserves budget under
// sequential composition and fails before over-spending; SpendParallel
// charges only the maximum epsilon for stages over disjoint data;
// Refund returns a reservation whose mechanism never drew noise.
type Accountant = privacy.Accountant

// BudgetEntry is one stage recorded by an Accountant.
type BudgetEntry = privacy.Entry

// NewAccountant creates a ledger with the given total epsilon budget.
func NewAccountant(total float64) (*Accountant, error) {
	return privacy.NewAccountant(total)
}

// SplitEvenly returns total/n — the per-level budget rule the release
// uses internally across hierarchy levels.
func SplitEvenly(total float64, n int) (float64, error) {
	return privacy.SplitEvenly(total, n)
}
