package analysis

import (
	"sort"
	"strings"
)

// ---- shared machinery for lockorder -------------------------------------

// nonLocal filters a held/identity list down to the module-visible mutex
// IDs ("pkg.Type.field" / "pkg.var"); locals cannot participate in
// cross-function protocol.
func nonLocal(ids []string) []string {
	var out []string
	for _, id := range ids {
		if id != "" && !strings.HasPrefix(id, "local:") {
			out = append(out, id)
		}
	}
	return out
}

// mutexMatches reports whether a //declint:locks-after operand names the
// mutex identity, by the same suffix convention as package matching.
func mutexMatches(id, pattern string) bool {
	return id == pattern || strings.HasSuffix(id, "/"+pattern) || strings.HasSuffix(id, "."+pattern)
}

// goAwareReach runs a BFS over the call graph starting from the given
// function IDs, never following go-statement edges (work on a spawned
// goroutine does not run under the caller's locks). It returns
// the visit order and the parent map for chain rendering.
func goAwareReach(ix *Index, starts []string) ([]string, map[string]string) {
	seen := map[string]bool{}
	parent := map[string]string{}
	var order, queue []string
	for _, s := range starts {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		fx := ix.Funcs[cur]
		if fx == nil {
			continue
		}
		for _, c := range fx.Calls {
			if c.Go {
				continue
			}
			for _, next := range ix.expand(c.Callee) {
				if !seen[next] {
					seen[next] = true
					parent[next] = cur
					queue = append(queue, next)
				}
			}
		}
	}
	return order, parent
}

// renderChain renders start -> ... -> end using a BFS parent map.
func renderChain(parent map[string]string, start, end string) string {
	chain := []string{shortID(end)}
	for cur := end; cur != start; {
		p, ok := parent[cur]
		if !ok {
			break
		}
		chain = append([]string{shortID(p)}, chain...)
		cur = p
	}
	return strings.Join(chain, " -> ")
}

// lockBlockingCall classifies a call-edge key as a blocking operation for
// lock-hold purposes: parallel fan-out, WaitGroup waits, sleeps, process
// waits, network and stream I/O. Returns a human label or "".
func lockBlockingCall(callee string, cfg Config) string {
	switch callee {
	case "iface:io.Writer.Write", "iface:io.Reader.Read":
		return "io." + callee[strings.LastIndex(callee, ".")+1:] + " interface I/O"
	case "iface:net.Listener.Accept", "iface:net.Conn.Read", "iface:net.Conn.Write":
		return strings.TrimPrefix(callee, "iface:")
	}
	id, ok := strings.CutPrefix(callee, "fn:")
	if !ok {
		return ""
	}
	switch id {
	case "time.Sleep", "sync.(WaitGroup).Wait", "io.Copy", "io.CopyN", "io.ReadAll", "net.Dial", "net.Listen",
		"encoding/json.(Encoder).Encode", "encoding/json.(Decoder).Decode":
		return id
	}
	if strings.HasPrefix(id, "fmt.Fprint") {
		return id
	}
	if strings.HasPrefix(id, "os/exec.(Cmd).") {
		switch id[len("os/exec.(Cmd)."):] {
		case "Run", "Wait", "Output", "CombinedOutput":
			return id
		}
	}
	if cfg.ParallelPkg != "" {
		for _, fn := range []string{".For", ".Do"} {
			p := cfg.ParallelPkg + fn
			if id == p || strings.HasSuffix(id, "/"+p) {
				return shortID(id) + " fan-out"
			}
		}
	}
	return ""
}

// blockingChanOp returns the first channel operation in fx that can block
// unboundedly: a send or receive that is neither ctx/timer-guarded nor a
// join on a completion channel.
func blockingChanOp(fx *FuncEffects) *ChanOp {
	for i := range fx.ChanOps {
		op := &fx.ChanOps[i]
		if op.Op == "close" || op.CtxGuarded || op.JoinGuarded || op.Chan == "ctx" {
			continue
		}
		if strings.HasPrefix(op.Chan, "time.") {
			continue
		}
		if op.Op == "recv" && op.Select {
			continue // a select over several live channels is a scheduling point
		}
		if op.Op == "recv" || op.Op == "send" {
			return op
		}
	}
	return nil
}

// ---- lockorder ----------------------------------------------------------

// checkLockOrder builds the whole-module lock-order graph and enforces the
// locking protocol: no double-lock of one mutex along a call chain, no
// cycles between mutexes, no blocking operation (channel op, parallel
// fan-out, I/O) while holding a lock, and intra-function pairing (every
// path releases what it locks, nothing unlocks what it never locked).
// Cross-function nested acquires — invisible at either call site alone —
// must be declared where the inner lock lives with
// //declint:locks-after <outer>, and every declaration must be backed by a
// real inbound edge.
func checkLockOrder(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	seen := map[string]bool{}
	report := func(f Finding) {
		key := posKey(f.Pos) + "|" + f.Msg
		if !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}

	type edgeInfo struct {
		pos   Finding // carrier finding position for cycle reports
		intra bool
	}
	edges := map[string]map[string]*edgeInfo{}
	addEdge := func(outer, inner string, pos Finding, intra bool) {
		m := edges[outer]
		if m == nil {
			m = map[string]*edgeInfo{}
			edges[outer] = m
		}
		if m[inner] == nil {
			m[inner] = &edgeInfo{pos: pos, intra: intra}
		}
	}
	// usedLocksAfter[fnID][pattern] marks declarations backed by a real
	// inbound held-edge.
	usedLocksAfter := map[string]map[string]bool{}

	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		// Intra-function protocol bugs from the path walker.
		for _, b := range fx.LockBugs {
			report(Finding{Check: "lockorder", Pos: b.Pos, Msg: shortMsgIDs(b.Kind)})
		}
		for _, e := range fx.LocksAfterErrs {
			report(Finding{Check: "lockorder", Pos: e.Pos, Msg: e.Kind})
		}
		// Intra-function nested acquires become graph edges directly; they
		// are visible in one screenful, so they need no declaration.
		for _, e := range fx.LockEdges {
			if len(nonLocal([]string{e.Outer})) == 0 || len(nonLocal([]string{e.Inner})) == 0 {
				continue
			}
			addEdge(e.Outer, e.Inner, Finding{Pos: e.Pos}, true)
		}
		// Channel operations under a lock block every other critical
		// section behind a scheduler decision.
		for _, op := range fx.ChanOps {
			if held := nonLocal(op.Held); len(held) > 0 && op.Op != "close" {
				report(Finding{Check: "lockorder", Pos: op.Pos,
					Msg: "channel " + op.Op + " while holding " + shortID(held[0]) +
						"; move the operation outside the critical section"})
			}
		}
		// Calls made with locks held: direct blocking callees, then the
		// go-aware closure of the callee for reacquires, nested acquires,
		// and transitively reachable blocking work.
		for _, cs := range fx.Calls {
			held := nonLocal(cs.Held)
			if len(held) == 0 || cs.Go {
				continue
			}
			if label := lockBlockingCall(cs.Callee, cfg); label != "" {
				report(Finding{Check: "lockorder", Pos: cs.Pos,
					Msg: "blocking call " + label + " while holding " + shortID(held[0]) +
						"; release the lock first (copy state out, then block)"})
				continue
			}
			targets := ix.expand(cs.Callee)
			if len(targets) == 0 {
				continue
			}
			order, parent := goAwareReach(ix, targets)
			for _, gid := range order {
				g := ix.Funcs[gid]
				if g == nil {
					continue
				}
				for _, lk := range g.Locks {
					if strings.HasPrefix(lk.Mutex, "local:") {
						continue
					}
					reacquired := false
					for _, h := range held {
						if h == lk.Mutex {
							report(Finding{Check: "lockorder", Pos: cs.Pos,
								Msg: "call chain " + shortID(id) + " -> " + renderChain(parent, targets[0], gid) +
									" reacquires " + shortID(h) + " already held here: self-deadlock"})
							reacquired = true
							break
						}
					}
					if reacquired {
						continue
					}
					for _, h := range held {
						declared := false
						for _, pat := range g.LocksAfter {
							if mutexMatches(h, pat) {
								declared = true
								if usedLocksAfter[gid] == nil {
									usedLocksAfter[gid] = map[string]bool{}
								}
								usedLocksAfter[gid][pat] = true
							}
						}
						addEdge(h, lk.Mutex, Finding{Pos: cs.Pos}, false)
						if !declared {
							report(Finding{Check: "lockorder", Pos: cs.Pos,
								Msg: "undeclared lock-order edge " + shortID(h) + " -> " + shortID(lk.Mutex) +
									" (via " + renderChain(parent, targets[0], gid) + "); declare it with " +
									locksAfterMarker + " " + shortID(h) + " on " + shortID(gid) +
									" or release before the call"})
						}
					}
				}
				if gid == id {
					continue // self-recursion: sites already reported directly
				}
				if op := blockingChanOp(g); op != nil {
					report(Finding{Check: "lockorder", Pos: cs.Pos,
						Msg: "call reaches a blocking channel " + op.Op + " in " +
							renderChain(parent, targets[0], gid) + " while holding " +
							shortID(held[0]) + "; release the lock first"})
				}
				for _, inner := range g.Calls {
					if inner.Go {
						continue
					}
					if label := lockBlockingCall(inner.Callee, cfg); label != "" {
						report(Finding{Check: "lockorder", Pos: cs.Pos,
							Msg: "call reaches blocking " + label + " in " +
								renderChain(parent, targets[0], gid) + " while holding " +
								shortID(held[0]) + "; release the lock first"})
						break
					}
				}
			}
		}
	}

	// Unbacked locks-after declarations: a claim with no inbound edge is
	// documentation drift, exactly like an unbacked ownership directive.
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		for _, pat := range fx.LocksAfter {
			if !usedLocksAfter[id][pat] {
				report(Finding{Check: "lockorder", Pos: fx.Pos,
					Msg: locksAfterMarker + " " + pat + " on " + shortID(id) +
						" is unbacked: no caller holds " + pat + " into it"})
			}
		}
	}

	// Cycle detection over the lock-order graph.
	var nodes []string
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	cycleSeen := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		color[n] = grey
		stack = append(stack, n)
		var succ []string
		for m := range edges[n] {
			succ = append(succ, m)
		}
		sort.Strings(succ)
		for _, m := range succ {
			switch color[m] {
			case white:
				dfs(m)
			case grey:
				// Found a cycle: stack from m to n, closed by n -> m.
				i := len(stack) - 1
				for i >= 0 && stack[i] != m {
					i--
				}
				cyc := append(append([]string{}, stack[i:]...), m)
				canon := canonicalCycle(cyc)
				if !cycleSeen[canon] {
					cycleSeen[canon] = true
					short := make([]string, len(cyc))
					for j, c := range cyc {
						short[j] = shortID(c)
					}
					report(Finding{Check: "lockorder", Pos: edges[n][m].pos.Pos,
						Msg: "lock-order cycle: " + strings.Join(short, " -> ") +
							"; establish a single acquisition order"})
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
	return out
}

// canonicalCycle keys a cycle independent of its starting rotation.
func canonicalCycle(cyc []string) string {
	body := cyc[:len(cyc)-1] // last repeats first
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rot := append(append([]string{}, body[min:]...), body[:min]...)
	return strings.Join(rot, "|")
}

// shortMsgIDs rewrites full-path identities embedded in walker bug strings
// to their short display form.
func shortMsgIDs(msg string) string {
	fields := strings.Fields(msg)
	for i, f := range fields {
		if strings.Contains(f, "/") && strings.Contains(f, ".") {
			fields[i] = shortID(f)
		}
	}
	return strings.Join(fields, " ")
}
