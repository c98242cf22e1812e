// Package noise implements the privacy primitives of Section 3.2: the
// geometric mechanism (double-geometric / two-sided geometric noise,
// which is integer-valued) and the Laplace mechanism (used only by the
// non-private "omniscient" baseline in the evaluation).
//
// All samplers draw from an explicit *rand.Rand so that experiments are
// reproducible under a fixed seed.
//
// A double-geometric draw is two geometric variates. Each reads one
// Int63 word x from the source, as rand.Float64 does (drawing again for
// the words from 2^63-2^9 up, where Float64 would round to 1), and
// equals floor(log(u)/log(alpha)) with u = 1 - float64(x)/2^63 and
// alpha = exp(-1/scale); at alpha = 0 (scales below about 1/745) it is 0
// and reads nothing. A per-scale table indexed by the top 12 bits of x
// answers a word when every word sharing those bits is at least a
// relative 1e-9 from the nearest boundary alpha^k, where the formula
// cannot round across it; every other word runs the formula. So a seed
// gives the same noise with or without the table. The tables are
// shared, at most 8 at a time, and a scale where half the cells or
// more would run the formula (above about 760) gets none.
package noise
