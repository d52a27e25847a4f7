package cluster

import (
	"errors"
	"fmt"
)

// NodeError attributes a failure to one pool node, so callers of the
// scatter-gather paths (MultiRead, MultiGet, replicated writes) and the
// failover machinery can act per node instead of parsing error text. It
// wraps the underlying cause, so errors.Is(err, ErrNodeDown) and
// transport-level classification keep working through it.
type NodeError struct {
	// Node is the pool index of the failing node.
	Node int
	// Label is the node's dial address (or synthetic test label).
	Label string
	// Err is the underlying failure.
	Err error
}

func (e *NodeError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("node %d (%s): %v", e.Node, e.Label, e.Err)
	}
	return fmt.Sprintf("node %d: %v", e.Node, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// AsNodeError extracts the failing node from an error chain.
func AsNodeError(err error) (*NodeError, bool) {
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne, true
	}
	return nil, false
}

// nodeErr attributes a failure of an operation on the node to it.
func (p *Pool) nodeErr(node int, err error) error {
	if err == nil {
		return nil
	}
	return &NodeError{Node: node, Label: p.labels[node], Err: err}
}
