package tree

// featureImportance accumulates each internal node's split gain into
// the slot of its split feature across every tree, normalized to sum to
// 1 (left untouched when the total gain is zero, e.g. an all-leaf
// ensemble).
func (e *ensemble[T]) featureImportance() []float64 {
	var gains []float64
	for t := range e.trees {
		n := &e.trees[t]
		for i, f := range n.feature {
			if f < 0 {
				continue
			}
			for int(f) >= len(gains) {
				gains = append(gains, 0)
			}
			gains[f] += n.gain[i]
		}
	}
	var total float64
	for _, g := range gains {
		total += g
	}
	if total > 0 {
		for i := range gains {
			gains[i] /= total
		}
	}
	return gains
}

// FeatureImportance returns the normalized total split gain per feature
// across every tree in the ensemble — the gain-based importance XGBoost
// reports. Index i is feature i's share of the total gain; the slice is
// as long as the highest feature any tree split on, plus one. Returns
// nil for an unfitted ensemble.
func (g *GBRegressor) FeatureImportance() []float64 { return g.ens.featureImportance() }

// FeatureImportance returns the normalized total split gain per feature
// across every (round, class) tree. See GBRegressor.FeatureImportance.
func (g *GBDT) FeatureImportance() []float64 { return g.ens.featureImportance() }
