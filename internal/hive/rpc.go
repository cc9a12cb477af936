package hive

import (
	"errors"
	"fmt"
	"sort"
)

// Inter-cell RPC (§3.3): cells never touch each other's I/O devices or
// kernel data directly; they ask the owning cell through RPC. The transport
// (an uncached doorbell) is vulnerable to packet loss during faults, so the
// subsystem layers an end-to-end exactly-once protocol on top: requests
// carry (cell, seq) identifiers, servers deduplicate and cache replies, and
// clients retransmit until they get an answer or learn the target is dead.

// ErrCellDown reports an RPC aimed at a dead cell.
var ErrCellDown = errors.New("hive: target cell is down")

// rpcEnvelope is the uncached payload.
type rpcEnvelope struct {
	FromCell int
	Seq      uint64
	Method   string
	Args     any
	Err      string
	Result   any
	IsReply  bool
}

// rpcID names one request for the server's exactly-once dedup.
type rpcID struct {
	cell int
	seq  uint64
}

// rpcCall is a pending client-side call.
type rpcCall struct {
	seq      uint64
	to       int // cell id
	method   string
	args     any
	cb       func(any, error)
	attempts int
	done     bool
}

// Handle registers an RPC handler on the cell.
func (c *Cell) Handle(method string, fn func(fromCell int, args any) (any, error)) {
	c.handlers[method] = fn
}

// setupRPC wires the boss node's uncached-operation handler to the RPC
// dispatcher.
func (c *Cell) setupRPC() {
	boss := c.h.M.Nodes[c.Boss()]
	boss.Ctrl.SetUncachedHandler(func(src int, payload any) (any, error) {
		if s, ok := payload.(string); ok && s == "hive-alive?" {
			return "ok", nil // cross-cell aliveness probe
		}
		env, ok := payload.(*rpcEnvelope)
		if !ok {
			return nil, fmt.Errorf("hive: unexpected uncached payload %T", payload)
		}
		return c.serve(env)
	})
}

// serve executes (or replays) a request with exactly-once semantics.
func (c *Cell) serve(env *rpcEnvelope) (any, error) {
	if !c.Alive() {
		return nil, fmt.Errorf("hive: cell %d not running", c.ID)
	}
	key := rpcID{env.FromCell, env.Seq}
	if cached, ok := c.seen[key]; ok {
		return cached, nil
	}
	fn := c.handlers[env.Method]
	if fn == nil {
		return nil, fmt.Errorf("hive: no handler for %q", env.Method)
	}
	reply := &rpcEnvelope{Seq: env.Seq, IsReply: true}
	res, err := fn(env.FromCell, env.Args)
	if err != nil {
		reply.Err = err.Error()
	}
	reply.Result = res
	c.seen[key] = reply
	return reply, nil
}

// Call invokes method on the target cell, completing through cb exactly
// once. Retransmissions are transparent; the call fails only if the target
// cell dies or this cell does.
func (c *Cell) Call(to *Cell, method string, args any, cb func(any, error)) {
	c.rpcSeq++
	call := &rpcCall{seq: c.rpcSeq, to: to.ID, method: method, args: args, cb: cb}
	c.pending[call.seq] = call
	c.transmit(call)
}

func (c *Cell) transmit(call *rpcCall) {
	if call.done {
		return
	}
	if !c.Alive() {
		c.finish(call, nil, fmt.Errorf("hive: calling cell %d is down", c.ID))
		return
	}
	target := c.h.Cells[call.to]
	if !target.Alive() {
		c.finish(call, nil, ErrCellDown)
		return
	}
	if c.suspended() || target.suspended() {
		// Recovery owns the processors; retry once it completes.
		c.h.M.E.After(rpcRetry, func() { c.transmit(call) })
		return
	}
	call.attempts++
	if call.attempts > 200 {
		c.finish(call, nil, fmt.Errorf("hive: rpc %s to cell %d gave up", call.method, call.to))
		return
	}
	env := &rpcEnvelope{FromCell: c.ID, Seq: call.seq, Method: call.method, Args: call.args}
	boss := c.h.M.Nodes[c.Boss()]
	answered := false
	boss.Ctrl.SendUncached(target.Boss(), true, false, env, func(v any, err error) {
		answered = true
		if call.done {
			return
		}
		if err != nil {
			// Lost doorbell or recovery abort: retransmit later; the
			// server's dedup table preserves exactly-once semantics.
			c.h.M.E.After(rpcRetry, func() { c.transmit(call) })
			return
		}
		reply, ok := v.(*rpcEnvelope)
		if !ok || !reply.IsReply {
			c.finish(call, nil, fmt.Errorf("hive: malformed rpc reply %T", v))
			return
		}
		if reply.Err != "" {
			c.finish(call, nil, errors.New(reply.Err))
			return
		}
		c.finish(call, reply.Result, nil)
	})
	// Belt-and-braces timer: if the transport never completed (e.g. the
	// request died with a recovery epoch), retransmit.
	c.h.M.E.After(rpcRetry*4, func() {
		if !answered && !call.done {
			answered = true // avoid double paths
			c.transmit(call)
		}
	})
}

func (c *Cell) finish(call *rpcCall, v any, err error) {
	if call.done {
		return
	}
	call.done = true
	delete(c.pending, call.seq)
	if call.cb != nil {
		call.cb(v, err)
	}
}

// failPendingRPCs aborts all in-flight calls with err, oldest first (the
// completion callbacks re-enter user code; keep the order deterministic).
func (c *Cell) failPendingRPCs(err error) {
	seqs := make([]uint64, 0, len(c.pending))
	for s := range c.pending {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		c.finish(c.pending[s], nil, err)
	}
}
