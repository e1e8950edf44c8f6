package nn

import (
	"fmt"

	"stencilmart/internal/persist"
)

// AppendWeights appends every trainable parameter block's weights to c,
// one float column a block in the network's canonical layer order.
// Together with the builder arguments that shaped the network (recorded
// by the caller's checkpoint), this is the full trained state: rebuilding
// the same architecture and reading the columns back reproduces
// predictions bitwise.
func (n *Network) AppendWeights(c *persist.Columns) {
	for _, p := range n.Params() {
		c.AppendFloats(p.W)
	}
}

// ReadWeights fills the network's parameter blocks from the next columns
// of c, one a block. Every column's length must match its block exactly;
// a checkpoint whose layer shapes disagree with the declared schema fails
// here, never producing a silently-wrong predictor.
func (n *Network) ReadWeights(c *persist.Columns) error {
	for i, p := range n.Params() {
		w := c.ReadFloats()
		if err := c.Err(); err != nil {
			return fmt.Errorf("nn: parameter block %d: %w", i, err)
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("nn: parameter block %d has %d weights, network layer expects %d", i, len(w), len(p.W))
		}
		copy(p.W, w)
	}
	return nil
}

// SetClasses restores the fitted class count on a rehydrated classifier
// (FitClassifier normally records it).
func (c *Classifier) SetClasses(n int) { c.classes = n }

// Classes returns the fitted class count.
func (c *Classifier) Classes() int { return c.classes }
