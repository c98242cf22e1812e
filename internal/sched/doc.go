// Package sched implements weighted-fair admission of compute work
// across tenants, with a strict priority lane for reads.
//
// The scheduler owns a fixed pool of compute slots. Each tenant (the
// engine keys tenants by hierarchy fingerprint) has a configurable
// weight and a bounded FIFO queue of waiters; when a slot frees, it is
// granted to the backlogged tenant with the smallest virtual finish
// time — classic start-time weighted-fair queuing with unit job cost,
// so a tenant's long-run share of completed computations converges to
// weight_i / sum(weights) whenever it stays backlogged, regardless of
// how aggressively other tenants flood their queues. A tenant whose
// queue is full is refused immediately (ErrQueueFull) instead of
// growing an unbounded backlog; the serving layer turns that into
// 429 + Retry-After.
//
// Reads never touch the slot pool. ReadBegin only counts them — the
// read lane is an accounting construct that makes the isolation
// invariant observable: cache and store reads, and query
// evaluation, are admitted unconditionally and can never wait behind a
// queued computation.
//
// The scheduler is work-conserving (a free slot is never held back
// from the only backlogged tenant) and clockless: fairness is defined
// over completed work, not wall time, which is what makes it exactly
// testable with no sleeps.
package sched
