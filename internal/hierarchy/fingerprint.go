package hierarchy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// FingerprintTree returns a stable digest of a hierarchy's content: the
// node paths and true histograms in the tree's deterministic level
// order. Two trees built from the same groups fingerprint identically,
// so uploads are idempotent and release keys are content-addressed.
func FingerprintTree(tree *Tree) string {
	h := sha256.New()
	// Each node is encoded into one reused buffer and hashed with one
	// Write; the digest is that of writing each field on its own. The
	// root's histogram is the longest in a tree built from groups.
	buf := make([]byte, 0, 64+len(tree.Root.Path)+8*(len(tree.Root.Hist)+1))
	tree.Walk(func(n *Node) {
		buf = append(buf[:0], n.Path...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(n.Hist)))
		for _, count := range n.Hist {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
		}
		h.Write(buf)
	})
	return hex.EncodeToString(h.Sum(nil)[:16])
}
