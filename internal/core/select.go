package core

import (
	"math"
	"slices"
	"sort"
)

// orderByDissimilarity sorts order ascending by d (index ascending on
// ties — a total order, so stability is irrelevant) without the
// reflection-closure allocations of sort.Slice.
func orderByDissimilarity(order []int, d []float64) {
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case d[a] < d[b]:
			return -1
		case d[a] > d[b]:
			return 1
		default:
			return a - b
		}
	})
}

// selectScratch provides reusable storage for anchor selection so hot
// callers avoid per-imputation allocations: the flat DP table, the
// sort-order permutation of the greedy/overlapping strategies, and the
// chosen-index slice every strategy returns. The zero value is ready to use;
// buffers grow on first use and are reused afterwards. Selections performed
// with the same scratch overwrite each other's returned index slice.
type selectScratch struct {
	dp    []float64
	order []int
	idx   []int
}

// idxBuf returns a length-0, capacity-≥k index slice backed by the scratch
// (freshly allocated when sc is nil).
func (sc *selectScratch) idxBuf(k int) []int {
	if sc == nil {
		return make([]int, 0, k)
	}
	if cap(sc.idx) < k {
		sc.idx = make([]int, 0, k)
	}
	return sc.idx[:0]
}

// orderBuf returns a length-n order slice backed by the scratch.
func (sc *selectScratch) orderBuf(n int) []int {
	if sc == nil {
		return make([]int, n)
	}
	if cap(sc.order) < n {
		sc.order = make([]int, n)
	}
	return sc.order[:n]
}

// selectAnchors picks k anchors from the dissimilarity profile d (d[j] is
// the dissimilarity of the j-th candidate pattern, whose anchor sits at
// window-local index l-1+j) under the configured strategy. It returns the
// chosen candidate indices (ascending) and the sum of their dissimilarities.
// ok is false when fewer than k anchors can be selected under the strategy's
// constraints.
// sc, when non-nil, provides reusable storage for the DP table, the sort
// order, and the returned index slice (which then aliases the scratch and is
// valid until the next selection with the same scratch).
func selectAnchors(d []float64, k, l int, sel Selection, sc *selectScratch) (idx []int, sum float64, ok bool) {
	switch sel {
	case SelectGreedy:
		return selectGreedy(d, k, l, sc)
	case SelectOverlapping:
		return selectOverlapping(d, k, sc)
	default:
		return selectDPInto(d, k, l, sc)
	}
}

// selectDP implements the paper's dynamic program (Eq. 5).
//
// With candidates numbered j = 1..n (n = len(d)), M[i][j] is the minimum sum
// of dissimilarities achievable by picking i mutually non-overlapping
// patterns among the first j candidates. Two candidate patterns overlap iff
// their anchor indices differ by less than l, so picking candidate j leaves
// candidates 1..j−l available:
//
//	M[i][j] = 0                                       if i = 0
//	M[i][j] = +inf                                    if i > j
//	M[i][j] = min(M[i][j−1], D[j] + M[i−1][max(j−l,0)]) otherwise
//
// The answer is M[k][n]; backtracking recovers the chosen candidates
// (Algorithm 1, lines 8–23).
func selectDP(d []float64, k, l int) (idx []int, sum float64, ok bool) {
	return selectDPInto(d, k, l, nil)
}

// selectDPInto is selectDP with caller-provided table storage (grown in
// place and reused across calls when sc is non-nil).
func selectDPInto(d []float64, k, l int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	n := len(d)
	if n == 0 || k <= 0 {
		return nil, 0, k <= 0
	}
	// M is (k+1) × (n+1), rolled out flat. M[i][j] at m[i*(n+1)+j].
	size := (k + 1) * (n + 1)
	var m []float64
	if sc != nil && cap(sc.dp) >= size {
		m = sc.dp[:size]
	} else {
		m = make([]float64, size)
		if sc != nil {
			sc.dp = m
		}
	}
	row := n + 1
	clear(m[:row])
	inf := math.Inf(1)
	for i := 1; i <= k; i++ {
		prev := m[(i-1)*row : i*row]
		cur := m[i*row : (i+1)*row]
		// M[i][j] = +inf for j < i: fewer candidates than picks.
		lo := min(i, row)
		for j := range cur[:lo] {
			cur[j] = inf
		}
		// best carries M[i][j−1] (the skip branch) in a register. The strict
		// test keeps the skip value on ties and whenever take is NaN, the
		// same outcome as comparing against the stored cell.
		best := inf
		// Clamped region, j ≤ l: picking candidate j leaves no earlier
		// candidate, so take = D[j] + M[i−1][0].
		hi := min(l, n)
		p0 := prev[0]
		for j := lo; j <= hi; j++ {
			if take := d[j-1] + p0; take < best {
				best = take
			}
			cur[j] = best
		}
		// Main region, j > l: take = D[j] + M[i−1][j−l]. The re-slices line
		// the three operands up at a common index so the loop is free of
		// bounds checks.
		if start := max(lo, l+1); start <= n {
			cc := cur[start : n+1]
			dd := d[start-1 : n]
			dd = dd[:len(cc)]
			pp := prev[start-l : n-l+1]
			pp = pp[:len(cc)]
			for x := range cc {
				if take := dd[x] + pp[x]; take < best {
					best = take
				}
				cc[x] = best
			}
		}
	}
	sum = m[k*row+n]
	if math.IsInf(sum, 1) {
		return nil, 0, false
	}
	// Backtrack.
	idx = sc.idxBuf(k)
	i, j := k, n
	for i > 0 {
		if j > i && m[i*row+j] == m[i*row+j-1] {
			j--
			continue
		}
		idx = append(idx, j-1) // 0-based candidate index
		i--
		j -= l
		if j < 0 {
			j = 0
		}
	}
	// Reverse to ascending order.
	for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
		idx[a], idx[b] = idx[b], idx[a]
	}
	return idx, sum, true
}

// selectGreedy sorts candidates by dissimilarity and keeps the first k that
// do not overlap any already-kept candidate. Sec. 6.1 notes this fails to
// minimize the total dissimilarity; it exists for the ablation bench.
func selectGreedy(d []float64, k, l int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	order := sc.orderBuf(len(d))
	for i := range order {
		order[i] = i
	}
	orderByDissimilarity(order, d)
	idx = sc.idxBuf(k)
	for _, j := range order {
		overlap := false
		for _, chosen := range idx {
			if abs(chosen-j) < l {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		idx = append(idx, j)
		sum += d[j]
		if len(idx) == k {
			break
		}
	}
	if len(idx) < k {
		return nil, 0, false
	}
	sort.Ints(idx)
	return idx, sum, true
}

// selectOverlapping picks the k globally smallest dissimilarities with no
// overlap constraint (the near-duplicate failure mode of Sec. 4.1).
func selectOverlapping(d []float64, k int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	if len(d) < k {
		return nil, 0, false
	}
	order := sc.orderBuf(len(d))
	for i := range order {
		order[i] = i
	}
	orderByDissimilarity(order, d)
	idx = append(sc.idxBuf(k), order[:k]...)
	for _, j := range idx {
		sum += d[j]
	}
	sort.Ints(idx)
	return idx, sum, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
