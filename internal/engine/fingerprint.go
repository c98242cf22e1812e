package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"hcoc"
)

// canonicalMethods renders Options.Methods exactly as the release
// consumes it (consistency.Options.methodFor): an empty list means
// MethodHc everywhere, a single entry is broadcast to every level, and
// a longer list assigns Methods[l] to level l. A uniform list is
// therefore the same release as its single-entry spelling — and, for
// MethodHc, as the empty one — so all three collapse to one canonical
// form and share one cache entry and one computation. Order is
// preserved for mixed lists: per-level assignment makes ["hc","hg"]
// and ["hg","hc"] genuinely different releases (TestReleaseKeyMethods
// proves it), so sorting them together would serve the wrong artifact.
func canonicalMethods(methods []hcoc.Method) string {
	if len(methods) == 0 {
		return hcoc.MethodHc.String()
	}
	uniform := true
	for _, m := range methods[1:] {
		if m != methods[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return methods[0].String()
	}
	parts := make([]string, len(methods))
	for i, m := range methods {
		parts[i] = m.String()
	}
	return strings.Join(parts, ",")
}

// releaseKey fingerprints a (tree, algorithm, options) release request.
// Workers is deliberately excluded: the released histograms do not
// depend on parallelism, so requests differing only in Workers share
// one cache entry and one in-flight computation. Methods are
// canonicalized so every spelling of the same per-level assignment
// shares one key.
func releaseKey(treeFP string, alg Algorithm, opts hcoc.Options) string {
	k := opts.K
	if k == 0 {
		k = hcoc.DefaultK
	}
	s := fmt.Sprintf("%s|%s|eps=%g|k=%d|methods=%s|merge=%s|seed=%d",
		treeFP, alg, opts.Epsilon, k, canonicalMethods(opts.Methods), opts.Merge, opts.Seed)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}
