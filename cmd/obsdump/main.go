// Command obsdump renders flight-recorder NDJSON dumps into the
// per-stage latency-attribution tables an operator reads during an
// incident.
//
// Usage:
//
//	obsdump -events events.ndjson                    # full report
//	obsdump -events events.ndjson -top 10            # longer slow-list
//	obsdump -events events.ndjson -trace a1b2c3-7    # one request's timeline
//
// The input is what cmd/decamouflage and cmd/experiments write for
// -events-out, or what /debug/events serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"decamouflage/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsdump", flag.ContinueOnError)
	var (
		eventsPath = fs.String("events", "", "flight-recorder NDJSON dump (from -events-out or /debug/events)")
		top        = fs.Int("top", 5, "how many slowest events and borderline verdicts to list")
		traceID    = fs.String("trace", "", "render the stage timeline of the event with this trace ID instead of the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eventsPath == "" {
		return fmt.Errorf("nothing to read (pass -events)")
	}
	var events []obs.Event
	if err := readNDJSON(*eventsPath, &events); err != nil {
		return err
	}
	if *traceID != "" {
		return renderTrace(out, events, *traceID)
	}
	report(out, events, *top)
	return nil
}

// readNDJSON decodes one JSON value per line from path into *[]T.
func readNDJSON[T any](path string, into *[]T) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		*into = append(*into, v)
	}
}

// stageAgg accumulates one stage path's observations.
type stageAgg struct {
	path  string
	depth int
	durs  []int64
	first int // order of first appearance, for stable display
}

// quantile returns the q-quantile of sorted ns values (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= 10*time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= 10*time.Microsecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// report writes the incident-readout tables: summary line, per-stage
// latency attribution, slowest events and borderline verdicts.
func report(out io.Writer, events []obs.Event, top int) {
	var errs, anomalous int
	for _, ev := range events {
		if ev.Err != "" {
			errs++
		}
		if len(ev.Anomalies) > 0 {
			anomalous++
		}
	}
	fmt.Fprintf(out, "Flight recorder report: %d events, %d errored, %d anomalous\n",
		len(events), errs, anomalous)
	if len(events) > 0 {
		durs := make([]int64, 0, len(events))
		var total int64
		for _, ev := range events {
			durs = append(durs, ev.DurNs)
			total += ev.DurNs
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		fmt.Fprintf(out, "Detect latency: total %s, mean %s, p50 %s, p95 %s, p99 %s\n",
			fmtNs(total), fmtNs(total/int64(len(events))),
			fmtNs(quantile(durs, 0.50)), fmtNs(quantile(durs, 0.95)), fmtNs(quantile(durs, 0.99)))
	}

	attribution(out, events)
	slowest(out, events, top)
	borderline(out, events, top)
}

// attribution aggregates every event's flattened span tree by stage path
// (names joined root-to-leaf, so the same kernel under two methods stays
// distinct) and prints count/total/mean/p50/p95/p99 plus the share of the
// summed root time.
func attribution(out io.Writer, events []obs.Event) {
	byPath := map[string]*stageAgg{}
	var rootTotal int64
	order := 0
	for _, ev := range events {
		// stack[d] is the name at depth d on the current root-to-leaf path.
		var stack []string
		for _, sd := range ev.Stages {
			if sd.Depth < len(stack) {
				stack = stack[:sd.Depth]
			}
			stack = append(stack, sd.Name)
			path := strings.Join(stack, " > ")
			agg := byPath[path]
			if agg == nil {
				agg = &stageAgg{path: path, depth: sd.Depth, first: order}
				order++
				byPath[path] = agg
			}
			agg.durs = append(agg.durs, sd.DurNs)
			if sd.Depth == 0 {
				rootTotal += sd.DurNs
			}
		}
	}
	if len(byPath) == 0 {
		return
	}
	aggs := make([]*stageAgg, 0, len(byPath))
	for _, a := range byPath {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].first < aggs[j].first })
	fmt.Fprintf(out, "\nPer-stage latency attribution (%d detect events):\n", len(events))
	fmt.Fprintf(out, "%-44s %6s %10s %10s %10s %10s %10s %6s\n",
		"STAGE", "COUNT", "TOTAL", "MEAN", "P50", "P95", "P99", "SHARE")
	for _, a := range aggs {
		var total int64
		for _, d := range a.durs {
			total += d
		}
		sorted := append([]int64(nil), a.durs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		share := 0.0
		if rootTotal > 0 {
			share = 100 * float64(total) / float64(rootTotal)
		}
		name := strings.Repeat("  ", a.depth) + lastSeg(a.path)
		fmt.Fprintf(out, "%-44s %6d %10s %10s %10s %10s %10s %5.1f%%\n",
			clip(name, 44), len(a.durs), fmtNs(total), fmtNs(total/int64(len(a.durs))),
			fmtNs(quantile(sorted, 0.50)), fmtNs(quantile(sorted, 0.95)),
			fmtNs(quantile(sorted, 0.99)), share)
	}
}

func lastSeg(path string) string {
	if i := strings.LastIndex(path, " > "); i >= 0 {
		return path[i+3:]
	}
	return path
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func slowest(out io.Writer, events []obs.Event, top int) {
	if len(events) == 0 || top <= 0 {
		return
	}
	sorted := append([]obs.Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DurNs > sorted[j].DurNs })
	if len(sorted) > top {
		sorted = sorted[:top]
	}
	fmt.Fprintf(out, "\nSlowest events:\n%-6s %-14s %-12s %10s %-8s %-6s %s\n",
		"SEQ", "TRACE", "GEOMETRY", "DUR", "VERDICT", "VOTES", "ANOMALIES")
	for _, ev := range sorted {
		fmt.Fprintf(out, "%-6d %-14s %-12s %10s %-8s %-6d %s\n",
			ev.Seq, ev.TraceID, fmt.Sprintf("%dx%dx%d", ev.W, ev.H, ev.C),
			fmtNs(ev.DurNs), ev.Verdict, ev.Votes, strings.Join(ev.Anomalies, ","))
	}
}

func borderline(out io.Writer, events []obs.Event, top int) {
	type bl struct {
		ev obs.Event
		m  obs.MethodResult
		// rel is the margin relative to the boundary magnitude, the
		// cross-method closeness measure.
		rel float64
	}
	var list []bl
	for _, ev := range events {
		for _, m := range ev.Methods {
			mag := m.Threshold
			if mag < 0 {
				mag = -mag
			}
			if mag < 1 {
				mag = 1
			}
			list = append(list, bl{ev: ev, m: m, rel: m.Margin / mag})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].rel < list[j].rel })
	shown := 0
	for _, b := range list {
		if b.rel > 0.05 || shown >= top {
			break
		}
		if shown == 0 {
			fmt.Fprintf(out, "\nBorderline verdicts (within 5%% of a decision boundary):\n%-6s %-14s %-18s %12s %12s %-8s\n",
				"SEQ", "TRACE", "METHOD", "SCORE", "THRESHOLD", "ATTACK")
		}
		fmt.Fprintf(out, "%-6d %-14s %-18s %12.5g %12.5g %-8v\n",
			b.ev.Seq, b.ev.TraceID, b.m.Method, b.m.Score, b.m.Threshold, b.m.Attack)
		shown++
	}
}

// renderTrace prints the stage timeline of the most recent event with
// the given trace ID under a header line, in obs.Trace.Render's format.
func renderTrace(out io.Writer, events []obs.Event, id string) error {
	for i := len(events) - 1; i >= 0; i-- {
		ev := events[i]
		if ev.TraceID != id {
			continue
		}
		status := ev.Verdict
		if ev.Err != "" {
			status = "error: " + ev.Err
		}
		fmt.Fprintf(out, "trace %s (%s, %s, %s)\n", ev.TraceID, ev.Name, fmtNs(ev.DurNs), status)
		return obs.RenderStages(out, ev.Stages)
	}
	return fmt.Errorf("no event for trace %q", id)
}
