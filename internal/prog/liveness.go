package prog

// VRegSet is a bitset over a function's virtual registers.
type VRegSet []uint64

// NewVRegSet returns a set sized for n vregs.
func NewVRegSet(n int) VRegSet { return make(VRegSet, (n+63)/64) }

// Has reports membership.
func (s VRegSet) Has(v VReg) bool {
	if v < 0 {
		return false
	}
	return s[v/64]&(1<<(uint(v)%64)) != 0
}

// Add inserts v.
func (s VRegSet) Add(v VReg) {
	if v >= 0 {
		s[v/64] |= 1 << (uint(v) % 64)
	}
}

// Remove deletes v.
func (s VRegSet) Remove(v VReg) {
	if v >= 0 {
		s[v/64] &^= 1 << (uint(v) % 64)
	}
}

// Union merges o into s, reporting whether s changed.
func (s VRegSet) Union(o VRegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s VRegSet) Clone() VRegSet {
	c := make(VRegSet, len(s))
	copy(c, s)
	return c
}

// Count returns the population count.
func (s VRegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Members lists the vregs in ascending order.
func (s VRegSet) Members() []VReg {
	var out []VReg
	for i, w := range s {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				out = append(out, VReg(i*64+b))
			}
		}
	}
	return out
}

// Liveness holds per-block live-in/live-out sets.
type Liveness struct {
	In  []VRegSet
	Out []VRegSet
}

// ComputeLiveness runs the standard backward dataflow analysis over f.
// The paper's PSR runtime performs equivalent "sophisticated liveness
// analysis" to compute the live-ins and live-outs recorded in the
// extended symbol table.
func ComputeLiveness(f *Func) *Liveness {
	n := len(f.Blocks)
	lv := &Liveness{In: make([]VRegSet, n), Out: make([]VRegSet, n)}
	gen := make([]VRegSet, n)
	kill := make([]VRegSet, n)
	for i, b := range f.Blocks {
		lv.In[i] = NewVRegSet(f.NVRegs)
		lv.Out[i] = NewVRegSet(f.NVRegs)
		gen[i] = NewVRegSet(f.NVRegs)
		kill[i] = NewVRegSet(f.NVRegs)
		for ii := range b.Ins {
			in := &b.Ins[ii]
			for _, u := range in.Uses() {
				if !kill[i].Has(u) {
					gen[i].Add(u)
				}
			}
			if d := in.Def(); d != NoVReg {
				kill[i].Add(d)
			}
		}
	}
	// Iterate to fixpoint in reverse block order for fast convergence.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Succs() {
				if lv.Out[i].Union(lv.In[s]) {
					changed = true
				}
			}
			// in = gen ∪ (out − kill)
			newIn := lv.Out[i].Clone()
			for w := range newIn {
				newIn[w] = gen[i][w] | (newIn[w] &^ kill[i][w])
			}
			if lv.In[i].Union(newIn) {
				changed = true
			}
		}
	}
	return lv
}

// Preds computes the predecessor lists of f's CFG.
func Preds(f *Func) [][]int {
	preds := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

// ReversePostorder returns block ids in reverse postorder from the entry.
// Unreachable blocks are appended at the end in id order.
func ReversePostorder(f *Func) []int {
	seen := make([]bool, len(f.Blocks))
	var order []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range f.Blocks[id].Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, id)
	}
	dfs(0)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for id := range f.Blocks {
		if !seen[id] {
			order = append(order, id)
		}
	}
	return order
}
