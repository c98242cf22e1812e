// Package loadgen is the part of the repository benchmark that needs no
// running server: the seeded operation generator, the closed and open
// loops that drive it, the latency digest with its percentile rule, and
// the in-memory span store whose self-time attribution turns a traced
// run into per-layer numbers. The benchmark command one directory up
// wires it to the serving stack.
//
// Percentile rule: a percentile is reported only when at least
// MinBeyond samples lie above it. Percentile fails with an
// *UnsupportedError otherwise, and Tail picks the highest percentile of
// Ladder that the samples support.
//
// Open-loop timing: an operation's latency runs from when it was due,
// not from when it was sent, so a stall also charges the operations it
// delayed. An operation that falls due while the in-flight bound is
// reached is dropped, and a drop counts as a failed attempt in both the
// numerator and the denominator of the error rate.
package loadgen
