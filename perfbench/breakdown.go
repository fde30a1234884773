package main

import (
	"fmt"
	"sort"
)

// partsTolerance is how far, as a share of latency_p50_ms, the median of
// the per-job part sums may sit from it.
const partsTolerance = 0.02

// Parts of a served job's latency. On serve-scenario the client's three
// calls tile the job. On fleet-campaign the SSE wait is split further
// along the job's path through the fleet, from the worker transport's
// spans: waiting queued (no lease held), lease grant round trips,
// compute on a worker (lease held, no request in flight), checkpoint
// uploads, the completion call, and delivery of the terminal SSE event
// after completion.
var (
	servePartNames = []string{"submit", "sse_wait", "result_fetch"}
	fleetPartNames = []string{"submit", "queue", "grant", "compute", "upload", "complete", "delivery", "result_fetch"}
)

// jobParts is one traced job's latency and its parts, in milliseconds.
type jobParts struct {
	total float64
	parts map[string]float64
}

// partsFromSpans rebuilds each job's parts from one pass's spans. Client
// spans carry the submission's attempt number; the fleet's server-side
// spans carry only the job ID, which is unique within a fleet pass.
func partsFromSpans(spans []span, fleet bool) []jobParts {
	type key struct {
		trace   string
		attempt int
	}
	clients := make(map[key]map[string]span)
	var keys []key
	server := make(map[string][]span)
	for _, s := range spans {
		switch {
		case s.Attempt > 0:
			k := key{s.Trace, s.Attempt}
			if clients[k] == nil {
				clients[k] = make(map[string]span)
				keys = append(keys, k)
			}
			clients[k][s.Name] = s
		case s.Trace != "":
			server[s.Trace] = append(server[s.Trace], s)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].attempt < keys[b].attempt })
	out := make([]jobParts, 0, len(keys))
	for _, k := range keys {
		c := clients[k]
		root, ok := c["client.job"]
		if !ok {
			continue
		}
		jp := jobParts{total: ms(root.End - root.Start), parts: make(map[string]float64)}
		for name, part := range map[string]string{
			"client.submit": "submit", "client.sse_wait": "sse_wait", "client.result_fetch": "result_fetch"} {
			if s, ok := c[name]; ok {
				jp.parts[part] = ms(s.End - s.Start)
			}
		}
		if fleet {
			fleetTimeline(c, server[k.trace], jp.parts)
		}
		out = append(out, jp)
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// fleetTimeline replaces a fleet job's sse_wait part with its path
// through the fleet. It sets no part when the job has no grant or no
// completion span, so the parts check reports the gap.
func fleetTimeline(c map[string]span, ss []span, parts map[string]float64) {
	sub, okSub := c["client.submit"]
	wait, okWait := c["client.sse_wait"]
	if !okSub || !okWait {
		return
	}
	sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
	var queue, grant, compute, upload, complete int64
	cursor := sub.End
	grants, completes := 0, 0
	for i := 0; i < len(ss); {
		g := ss[i]
		i++
		if g.Name != "lease.grant" {
			continue
		}
		grants++
		queue += g.Start - cursor
		grant += g.End - g.Start
		last, busy := g.End, int64(0)
		for ; i < len(ss) && ss[i].Name != "lease.grant"; i++ {
			s := ss[i]
			switch s.Name {
			case "lease.upload":
				upload += s.End - s.Start
			case "lease.complete":
				complete += s.End - s.Start
				completes++
			default:
				continue // renewals overlap the compute; they are no part of the path
			}
			busy += s.End - s.Start
			if s.End > last {
				last = s.End
			}
		}
		compute += last - g.End - busy
		cursor = last
	}
	if grants == 0 || completes == 0 {
		return
	}
	delete(parts, "sse_wait")
	parts["queue"] = ms(queue)
	parts["grant"] = ms(grant)
	parts["compute"] = ms(compute)
	parts["upload"] = ms(upload)
	parts["complete"] = ms(complete)
	parts["delivery"] = ms(wait.End - cursor)
}

// partsReport checks that every traced job has every part and that the
// median per-job part sum matches latency_p50_ms within partsTolerance,
// and describes each part.
func partsReport(js []jobParts, names []string, latencyP50 float64) ([]string, error) {
	if len(js) == 0 {
		return nil, fmt.Errorf("parts: no traced jobs")
	}
	var sums []float64
	per := make(map[string][]float64)
	var firstErr error
	missing := 0
	for _, j := range js {
		if err := missingPart(j.parts, names); err != nil {
			missing++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s, _ := checkParts(j.total, j.parts, names, partsTolerance)
		sums = append(sums, s)
		for _, n := range names {
			per[n] = append(per[n], j.parts[n])
		}
	}
	lines := []string{fmt.Sprintf("  parts of %d traced jobs (tolerance %.0f%% of latency_p50_ms):", len(js), 100*partsTolerance)}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("    %-13s %s", n, describe(per[n], "ms", 0.5, 0.99)))
	}
	if missing > 0 {
		return lines, fmt.Errorf("parts: %d of %d jobs lack a part (first: %v)", missing, len(js), firstErr)
	}
	sum, err := checkParts(latencyP50, map[string]float64{"sum": median(sums)}, []string{"sum"}, partsTolerance)
	lines = append(lines, fmt.Sprintf("    median per-job sum %.4g ms vs latency_p50_ms %.4g ms", sum, latencyP50))
	return lines, err
}

// missingPart reports the first of names absent from parts.
func missingPart(parts map[string]float64, names []string) error {
	for _, n := range names {
		if _, ok := parts[n]; !ok {
			return fmt.Errorf("part %q is missing", n)
		}
	}
	return nil
}
