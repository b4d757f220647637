package analysis

import (
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ---- shared machinery for the concurrency-protocol checks ---------------

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
// goroutine does not run under the caller's locks or deadline). It returns
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
// lock-hold purposes: parallel fan-out, sleeps, process waits, network and
// stream I/O. Returns a human label or "".
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
	case "time.Sleep", "io.Copy", "io.CopyN", "io.ReadAll", "net.Dial", "net.Listen",
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

// deadlineBlockingCall is the narrower set the deadline check enforces on
// ctx-less exported entry points: operations that can block indefinitely on
// the outside world.
func deadlineBlockingCall(callee string) string {
	switch callee {
	case "iface:net.Listener.Accept", "iface:net.Conn.Read", "iface:net.Conn.Write":
		return strings.TrimPrefix(callee, "iface:")
	}
	id, ok := strings.CutPrefix(callee, "fn:")
	if !ok {
		return ""
	}
	switch id {
	case "time.Sleep", "net.Dial":
		return id
	}
	if strings.HasPrefix(id, "os/exec.(Cmd).") {
		switch id[len("os/exec.(Cmd)."):] {
		case "Run", "Wait", "Output", "CombinedOutput":
			return id
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
		// Intra-function protocol bugs from the path walker (the
		// send-after-close shape belongs to chandisc).
		for _, b := range fx.LockBugs {
			if strings.HasPrefix(b.Kind, "send on ") {
				continue
			}
			report(Finding{Check: "lockorder", Pos: b.Pos, Msg: shortMsgIDs(b.Kind)})
		}
		for _, e := range fx.ConcDirectiveErrs {
			if strings.Contains(e.Kind, locksAfterMarker) {
				report(Finding{Check: "lockorder", Pos: e.Pos, Msg: e.Kind})
			}
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

// ---- golife -------------------------------------------------------------

// checkGoLife requires every go statement to have a provable termination
// signal and a reachable counterpart that fires it: a fork-join WaitGroup,
// ctx.Done(), or a stop channel somebody in the module closes — and, once
// stopped, a join (receive on a completion channel the goroutine closes)
// so Stop/Close returning means the goroutine is actually gone. The
// function owning the go statement must carry //declint:spawns <reason>,
// and the claim must be backed by a real go statement.
func checkGoLife(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding

	// Module-wide channel facts: who closes what, who receives what, and
	// which external receiver types get lifecycle calls.
	closers := map[string]bool{}   // chan ID -> closed somewhere
	receivers := map[string]bool{} // chan ID -> received somewhere
	lifecycle := map[string]bool{} // "fn:<pkg>.(Type)." prefix with Close/Stop/Shutdown/Wait
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		for _, op := range fx.ChanOps {
			switch op.Op {
			case "close":
				closers[op.Chan] = true
			case "recv":
				receivers[op.Chan] = true
			}
		}
		for _, cs := range fx.Calls {
			if i := strings.LastIndex(cs.Callee, ")."); i >= 0 {
				switch cs.Callee[i+2:] {
				case "Close", "Stop", "Shutdown", "Wait":
					lifecycle[cs.Callee[:i+2]] = true
				}
			}
		}
	}
	// Per-function locals: close/recv visible inside the same function.
	localCloses := func(fx *FuncEffects, ch string) bool {
		for _, op := range fx.ChanOps {
			if op.Op == "close" && op.Chan == ch {
				return true
			}
		}
		return false
	}
	localRecvs := func(fx *FuncEffects, ch string) bool {
		for _, op := range fx.ChanOps {
			if op.Op == "recv" && op.Chan == ch {
				return true
			}
		}
		return false
	}

	// verifyChanSignal checks the close/join protocol for one stop channel.
	verify := func(fx *FuncEffects, sp SpawnSite, stopCh string, closes []string) []Finding {
		var fs []Finding
		isLocal := strings.HasPrefix(stopCh, "local:")
		closed := closers[stopCh]
		if isLocal {
			closed = localCloses(fx, stopCh)
		}
		if !closed {
			fs = append(fs, Finding{Check: "golife", Pos: sp.Pos,
				Msg: "goroutine waits on " + shortID(stopCh) +
					" but nothing in the module ever closes it: unreachable shutdown"})
			return fs
		}
		joined := false
		for _, done := range closes {
			if strings.HasPrefix(done, "local:") {
				if localRecvs(fx, done) {
					joined = true
				}
			} else if receivers[done] {
				joined = true
			}
		}
		if !joined {
			fs = append(fs, Finding{Check: "golife", Pos: sp.Pos,
				Msg: "stop channel " + shortID(stopCh) + " is closed but the goroutine is " +
					"never joined: close a done channel in the goroutine and receive it in Stop/Close"})
		}
		return fs
	}

	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		for _, e := range fx.ConcDirectiveErrs {
			if strings.Contains(e.Kind, spawnsMarker) {
				out = append(out, Finding{Check: "golife", Pos: e.Pos, Msg: e.Kind})
			}
		}
		if fx.SpawnsReason != "" && len(fx.Spawns) == 0 {
			out = append(out, Finding{Check: "golife", Pos: fx.Pos,
				Msg: spawnsMarker + " on " + shortID(id) + " is unbacked: the function has no go statement"})
		}
		if len(fx.Spawns) > 0 && fx.SpawnsReason == "" {
			out = append(out, Finding{Check: "golife", Pos: fx.Spawns[0].Pos,
				Msg: shortID(id) + " spawns a goroutine without a " + spawnsMarker +
					" directive documenting the topology"})
		}
		for _, sp := range fx.Spawns {
			if sp.Callee != "" {
				gid, _ := strings.CutPrefix(sp.Callee, "fn:")
				g := ix.Funcs[gid]
				if g == nil {
					// External callee: sanctioned only when the module holds
					// the other end of its lifecycle (http.Server.Serve is
					// fine iff something calls http.Server.Close/Shutdown).
					if i := strings.LastIndex(sp.Callee, ")."); i >= 0 && lifecycle[sp.Callee[:i+2]] {
						continue
					}
					out = append(out, Finding{Check: "golife", Pos: sp.Pos,
						Msg: "goroutine runs external " + shortID(strings.TrimPrefix(sp.Callee, "fn:")) +
							" with no module call to its Close/Stop/Shutdown counterpart"})
					continue
				}
				// Derive the spawned function's termination signals from its
				// own summary.
				satisfied := false
				var chanSignals []string
				for _, op := range g.ChanOps {
					if op.Op != "recv" {
						continue
					}
					if op.Chan == "ctx" {
						satisfied = true
						break
					}
					if op.Chan != "" && !strings.HasPrefix(op.Chan, "time.") && !strings.HasPrefix(op.Chan, "local:") {
						chanSignals = append(chanSignals, op.Chan)
					}
				}
				if satisfied {
					continue
				}
				if len(chanSignals) > 0 {
					var gCloses []string
					for _, op := range g.ChanOps {
						if op.Op == "close" {
							gCloses = append(gCloses, op.Chan)
						}
					}
					out = append(out, verify(fx, sp, chanSignals[0], gCloses)...)
					continue
				}
				if g.InfLoop {
					out = append(out, Finding{Check: "golife", Pos: sp.Pos,
						Msg: "goroutine " + shortID(gid) + " loops forever with no termination signal " +
							"(ctx.Done, stop channel, or WaitGroup): leaks on every path"})
				}
				continue
			}
			// Closure spawn: signals were computed in place.
			satisfied := false
			for _, s := range sp.Signals {
				if s == "join" || s == "ctx" || s == "bounded" {
					satisfied = true
					break
				}
			}
			if satisfied {
				continue
			}
			var stopCh string
			for _, s := range sp.Signals {
				if ch, ok := strings.CutPrefix(s, "chan:"); ok {
					stopCh = ch
					break
				}
			}
			if stopCh == "" {
				out = append(out, Finding{Check: "golife", Pos: sp.Pos,
					Msg: "goroutine leaks on every path: no termination signal " +
						"(ctx.Done, stop channel, or WaitGroup join)"})
				continue
			}
			out = append(out, verify(fx, sp, stopCh, sp.Closes)...)
		}
	}
	return out
}

// ---- chandisc -----------------------------------------------------------

// checkChanDisc enforces channel discipline: sends in context-receiving
// functions must be select+ctx.Done()-guarded (a naked send in a cancelable
// call path outlives the caller), no time.After inside loops (one leaked
// timer per iteration), no send after a close on the same path, and
// buffered capacities must be named constants — a bare literal is an
// undocumented backpressure policy.
func checkChanDisc(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		for _, op := range fx.ChanOps {
			if op.Op != "send" || !fx.HasCtx || op.CtxGuarded {
				continue
			}
			out = append(out, Finding{Check: "chandisc", Pos: op.Pos,
				Msg: shortID(id) + " receives a ctx but sends" + chanName(op.Chan) +
					" without a ctx.Done() select guard; the send can outlive cancellation"})
		}
		for _, s := range fx.TimerLoops {
			out = append(out, Finding{Check: "chandisc", Pos: s.Pos,
				Msg: "time.After inside a loop leaks one timer per iteration; " +
					"hoist a time.Timer/Ticker out of the loop"})
		}
		for _, b := range fx.LockBugs {
			if strings.HasPrefix(b.Kind, "send on ") {
				out = append(out, Finding{Check: "chandisc", Pos: b.Pos,
					Msg: shortMsgIDs(b.Kind) + ": guaranteed panic if reached"})
			}
		}
		for _, s := range fx.MagicBuffers {
			out = append(out, Finding{Check: "chandisc", Pos: s.Pos,
				Msg: s.Kind + " is a magic literal; name the capacity as a constant " +
					"or derive it from config"})
		}
	}
	return out
}

func chanName(ch string) string {
	if ch == "" || strings.HasPrefix(ch, "local:") {
		return ""
	}
	return " on " + shortID(ch)
}

// ---- deadline -----------------------------------------------------------

// checkDeadline requires exported ctx-less entry points of the serving
// packages (Config.DeadlinePkgs) to be deadline-safe: no blocking stdlib
// call (net, os/exec, time.Sleep) and no raw channel receive reachable
// without a ctx/timeout guard. Go-statement edges are skipped — blocking on
// a spawned goroutine is golife's concern, not the caller's latency — and
// join-guarded receives (close(stop) then <-done) are the sanctioned
// shutdown idiom.
func checkDeadline(pkgs []*Package, cfg Config, ix *Index) []Finding {
	var out []Finding
	for _, id := range ix.IDs() {
		fx := ix.Funcs[id]
		if !fx.Exported || fx.HasCtx || !pathMatchesAny(fx.PkgPath, cfg.DeadlinePkgs) {
			continue
		}
		order, parent := goAwareReach(ix, []string{id})
		for _, gid := range order {
			g := ix.Funcs[gid]
			if g == nil {
				continue
			}
			var msg string
			var site Site
			if op := blockingChanOp(g); op != nil && op.Op == "recv" && !op.Select {
				msg = "raw channel receive"
				site = Site{Pos: op.Pos}
			} else {
				for _, cs := range g.Calls {
					if cs.Go {
						continue
					}
					if label := deadlineBlockingCall(cs.Callee); label != "" {
						msg = "blocking " + label
						site = Site{Pos: cs.Pos}
						break
					}
				}
			}
			if msg == "" {
				continue
			}
			via := ""
			if gid != id {
				via = " (via " + renderChain(parent, id, gid) + ")"
			}
			out = append(out, Finding{Check: "deadline", Pos: fx.Pos,
				Msg: "exported " + shortID(id) + " takes no ctx but reaches " + msg +
					" at " + filepath.Base(site.Pos.Filename) + ":" + strconv.Itoa(site.Pos.Line) +
					via + "; thread a context or deadline through it"})
			break
		}
	}
	return out
}
