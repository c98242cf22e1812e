package hierarchy

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hcoc/internal/histogram"
)

// Node is one region in the hierarchy.
type Node struct {
	// Name is the region's name within its parent (e.g. "CA").
	Name string
	// Path is the full slash-separated path from the root (e.g.
	// "US/CA/Alameda"), unique within a tree.
	Path string
	// Level is the depth: 0 for the root.
	Level int
	// Parent is nil for the root.
	Parent *Node
	// Children are ordered by name for deterministic traversal.
	Children []*Node
	// Hist is the true (private) count-of-counts histogram of the
	// groups in this region.
	Hist histogram.Hist
}

// G returns the public number of groups in the node's region.
func (n *Node) G() int64 { return n.Hist.Groups() }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Child returns the child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Name >= name })
	if i < len(n.Children) && n.Children[i].Name == name {
		return n.Children[i]
	}
	return nil
}

// Tree is a region hierarchy with per-level node indexes.
type Tree struct {
	Root *Node
	// ByLevel[l] lists the nodes at level l in deterministic
	// (path-sorted) order. ByLevel[0] is [Root].
	ByLevel [][]*Node
}

// Depth returns the number of levels, including the root level.
func (t *Tree) Depth() int { return len(t.ByLevel) }

// Leaves returns the nodes at the deepest level.
func (t *Tree) Leaves() []*Node { return t.ByLevel[t.Depth()-1] }

// Nodes returns all nodes in level order.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	for _, level := range t.ByLevel {
		out = append(out, level...)
	}
	return out
}

// Walk visits every node in level order (root first).
func (t *Tree) Walk(fn func(*Node)) {
	for _, level := range t.ByLevel {
		for _, n := range level {
			fn(n)
		}
	}
}

// WithHists returns a copy of t with the same shape, in which every
// node in hists carries the given histogram and every other node shares
// its Hist slice with t. The copy has its own Node structs, so Parent
// and Children pointers stay inside it and t is left untouched; only
// the histogram slices are shared, and they must not be mutated. The
// caller keeps the tree additive: a changed leaf's ancestors must be in
// hists too.
func (t *Tree) WithHists(hists map[*Node]histogram.Hist) *Tree {
	count := 0
	for _, level := range t.ByLevel {
		count += len(level)
	}
	nodes := make([]Node, count)
	copied := make(map[*Node]*Node, count)
	out := &Tree{ByLevel: make([][]*Node, len(t.ByLevel))}
	ptrs := make([]*Node, count)
	i := 0
	for l, level := range t.ByLevel {
		out.ByLevel[l] = ptrs[i : i+len(level) : i+len(level)]
		for j, old := range level {
			n := &nodes[i]
			*n = Node{Name: old.Name, Path: old.Path, Level: old.Level, Hist: old.Hist}
			if h, ok := hists[old]; ok {
				n.Hist = h
			}
			if old.Parent != nil {
				n.Parent = copied[old.Parent]
			}
			copied[old] = n
			out.ByLevel[l][j] = n
			i++
		}
	}
	for _, level := range t.ByLevel {
		for _, old := range level {
			if len(old.Children) == 0 {
				continue
			}
			n := copied[old]
			n.Children = make([]*Node, len(old.Children))
			for j, c := range old.Children {
				n.Children[j] = copied[c]
			}
		}
	}
	out.Root = copied[t.Root]
	return out
}

// Validate checks the structural invariants: every internal node's
// histogram equals the sum of its children's histograms, levels are
// consistent, and paths are unique.
func (t *Tree) Validate() error {
	seen := make(map[string]bool)
	var err error
	t.Walk(func(n *Node) {
		if err != nil {
			return
		}
		if seen[n.Path] {
			err = fmt.Errorf("hierarchy: duplicate path %q", n.Path)
			return
		}
		seen[n.Path] = true
		if n.Parent != nil && n.Level != n.Parent.Level+1 {
			err = fmt.Errorf("hierarchy: node %q level %d under parent level %d", n.Path, n.Level, n.Parent.Level)
			return
		}
		if e := n.Hist.Validate(); e != nil {
			err = fmt.Errorf("hierarchy: node %q: %w", n.Path, e)
			return
		}
		if !n.IsLeaf() {
			var sum histogram.Hist
			for _, c := range n.Children {
				sum = sum.Add(c.Hist)
			}
			if !n.Hist.Equal(sum) {
				err = fmt.Errorf("hierarchy: node %q histogram is not the sum of its children", n.Path)
			}
		}
	})
	return err
}

// Builder incrementally constructs a Tree from group records. All leaf
// paths must have the same depth; Build reports an error otherwise.
type Builder struct {
	rootName string
	root     *node
}

type node struct {
	name     string
	children map[string]*node
	hist     histogram.Hist
}

// NewBuilder creates a builder whose root region has the given name
// (e.g. "US" or "Manhattan").
func NewBuilder(rootName string) *Builder {
	return &Builder{
		rootName: rootName,
		root:     &node{name: rootName, children: map[string]*node{}},
	}
}

// AddGroup records one group of the given size located at the leaf
// identified by path (region names below the root, one per level).
// Size must be nonnegative.
func (b *Builder) AddGroup(path []string, size int64) { b.AddGroups(path, size, 1) }

// AddGroups records count groups of the same size at one leaf: the
// count-aware form of AddGroup, for input that is already a histogram.
// Size must be nonnegative and count positive.
func (b *Builder) AddGroups(path []string, size, count int64) {
	if size < 0 {
		panic(fmt.Sprintf("hierarchy: negative group size %d", size))
	}
	if count <= 0 {
		panic(fmt.Sprintf("hierarchy: non-positive group count %d", count))
	}
	cur := b.root
	cur.addSize(size, count)
	for _, name := range path {
		child, ok := cur.children[name]
		if !ok {
			child = &node{name: name, children: map[string]*node{}}
			cur.children[name] = child
		}
		cur = child
		cur.addSize(size, count)
	}
}

func (n *node) addSize(size, count int64) {
	for int64(len(n.hist)) <= size {
		n.hist = append(n.hist, 0)
	}
	n.hist[size] += count
}

// Build finalizes the tree. It returns an error if leaves are at mixed
// depths (a group would span levels) or no groups were added.
func (b *Builder) Build() (*Tree, error) {
	if b.root.hist.Groups() == 0 {
		return nil, fmt.Errorf("hierarchy: no groups added")
	}
	root := convert(b.root, nil, b.rootName, 0)
	tree := &Tree{Root: root}
	depth := -1
	// Collect levels breadth-first.
	frontier := []*Node{root}
	for level := 0; len(frontier) > 0; level++ {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].Path < frontier[j].Path })
		tree.ByLevel = append(tree.ByLevel, frontier)
		var next []*Node
		for _, n := range frontier {
			if n.IsLeaf() {
				if depth == -1 {
					depth = n.Level
				} else if depth != n.Level {
					return nil, fmt.Errorf("hierarchy: leaf %q at level %d, expected %d", n.Path, n.Level, depth)
				}
				continue
			}
			next = append(next, n.Children...)
		}
		frontier = next
	}
	// A group recorded at an internal node (e.g. AddGroup with a path
	// that is a prefix of another group's path) breaks additivity;
	// Validate catches it.
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
}

func convert(src *node, parent *Node, path string, level int) *Node {
	n := &Node{
		Name:   src.name,
		Path:   path,
		Level:  level,
		Parent: parent,
		Hist:   src.hist,
	}
	names := make([]string, 0, len(src.children))
	for name := range src.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n.Children = append(n.Children, convert(src.children[name], n, path+"/"+name, level+1))
	}
	return n
}

// Group is one group record: the region path of the leaf it belongs to
// and the number of entities it contains. BuildTree consumes a list of
// these.
type Group struct {
	// Path holds the region names below the root, outermost first.
	Path []string
	// Size is the number of entities in the group.
	Size int64
}

// BuildTree constructs a tree from group records under the given root
// name.
func BuildTree(rootName string, groups []Group) (*Tree, error) {
	b := NewBuilder(rootName)
	for _, g := range groups {
		b.AddGroup(g.Path, g.Size)
	}
	return b.Build()
}

// MaxGroupSize is the largest group size, and the largest public bound
// K, that the service accepts (hcoc.MaxGroupSize says why).
const MaxGroupSize = 1 << 22

// CheckGroup reports why a group named in a request is refused, or
// nil: its size must lie in [0, MaxGroupSize], and no region name may
// contain "/", the separator of node paths. Only request input is
// checked; a persisted event log replays whatever it holds.
func CheckGroup(path []string, size int64) error {
	if size < 0 || size > MaxGroupSize {
		return fmt.Errorf("size %d is outside [0, %d]", size, MaxGroupSize)
	}
	for _, name := range path {
		if strings.Contains(name, "/") {
			return fmt.Errorf("region name %q contains \"/\"", name)
		}
	}
	return nil
}

// CheckUpload reports why the groups of a hierarchy upload are refused,
// or nil: there is at least one, each passes CheckGroup, and every path
// names a leaf at the same non-zero depth. Groups that pass always
// build a tree with BuildTree.
func CheckUpload(groups []Group) error {
	if len(groups) == 0 {
		return errors.New("no groups in upload")
	}
	depth := len(groups[0].Path)
	for i, g := range groups {
		if len(g.Path) == 0 {
			return fmt.Errorf("group %d has an empty path", i)
		}
		if len(g.Path) != depth {
			return fmt.Errorf("group %d has a path of %d regions, group 0 one of %d", i, len(g.Path), depth)
		}
		if err := CheckGroup(g.Path, g.Size); err != nil {
			return fmt.Errorf("group %d: %v", i, err)
		}
	}
	return nil
}
