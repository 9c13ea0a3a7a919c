package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simcal/internal/core"
)

// span is one timed interval of a calibration's span tree. Spans are
// kept in memory while a calibration runs and turned into budget lines
// when it has finished.
type span struct {
	name   string // budget line its self time is charged to, e.g. "opt.fit_s"
	cal    string // calibration (or service job) the span belongs to
	key    string // point key, to pair a call with the call it made
	start  time.Time
	end    time.Time
	parent int // index into the tree; -1 for the root
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog collects the spans the timing decorators record. Recording is
// off unless a traced calibration is running, so a decorator that stays
// installed between calibrations (a worker's cached simulator) costs one
// atomic load per call when tracing is off.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// drain returns the spans recorded since the last drain.
func (l *spanLog) drain() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// pointKey identifies a parameter point by the exact bits of its
// values, so a coordinator-side call and the worker-side simulator run
// it leased can be paired up.
func pointKey(p core.Point) string {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	b := make([]byte, 0, 24*len(names))
	for _, n := range names {
		b = append(b, n...)
		b = append(b, '=')
		b = appendBits(b, p[n])
		b = append(b, ';')
	}
	return string(b)
}

// tree is a calibration's span tree under construction; spans[0] is the
// root, which covers the whole calibration.
type tree struct {
	spans []span
}

func newTree(name, cal string, start, end time.Time) *tree {
	return &tree{spans: []span{{name: name, cal: cal, start: start, end: end, parent: -1}}}
}

// add attaches s under parent, clamped into the parent's interval, and
// returns its index. A span clamped to nothing is dropped (-1).
func (t *tree) add(s span, parent int) int {
	p := t.spans[parent]
	if s.start.Before(p.start) {
		s.start = p.start
	}
	if s.end.After(p.end) {
		s.end = p.end
	}
	if !s.end.After(s.start) {
		return -1
	}
	s.parent = parent
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// containing returns the last of candidates (span indices) whose
// interval contains the instant at, or fallback when none does.
func (t *tree) containing(candidates []int, at time.Time, fallback int) int {
	for i := len(candidates) - 1; i >= 0; i-- {
		s := t.spans[candidates[i]]
		if !at.Before(s.start) && at.Before(s.end) {
			return candidates[i]
		}
	}
	return fallback
}

// selfTimes charges the root's wall time to the spans of the tree, by
// budget line. Each instant goes to the innermost spans active at it:
// a span's self time is its duration minus the part its children
// cover. Where k sibling spans overlap (concurrent evaluations), each
// is charged 1/k of the overlap, so the lines always sum to the root's
// duration and nothing is counted twice.
func (t *tree) selfTimes() map[string]float64 {
	type edge struct {
		at   int64
		i    int
		open bool
	}
	base := t.spans[0].start
	edges := make([]edge, 0, 2*len(t.spans))
	for i, s := range t.spans {
		edges = append(edges,
			edge{at: int64(s.start.Sub(base)), i: i, open: true},
			edge{at: int64(s.end.Sub(base)), i: i})
	}
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	active := make([]bool, len(t.spans))
	activeKids := make([]int, len(t.spans))
	out := make(map[string]float64)
	var leaves []int
	prev := edges[0].at
	for k := 0; k < len(edges); {
		at := edges[k].at
		if dt := at - prev; dt > 0 {
			leaves = leaves[:0]
			for i := range t.spans {
				if active[i] && activeKids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			share := float64(dt) / float64(len(leaves)) / 1e9
			for _, i := range leaves {
				out[t.spans[i].name] += share
			}
		}
		for ; k < len(edges) && edges[k].at == at; k++ {
			e := edges[k]
			active[e.i] = e.open
			if p := t.spans[e.i].parent; p >= 0 {
				if e.open {
					activeKids[p]++
				} else {
					activeKids[p]--
				}
			}
		}
		prev = at
	}
	return out
}

// writeSpans writes the spans of every traced calibration to path, one
// JSON object per line, so a run's budget can be re-derived after the
// fact.
func writeSpans(path string, trees []*tree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range trees {
		for i, s := range t.spans {
			err := enc.Encode(struct {
				Cal     string `json:"cal"`
				ID      int    `json:"id"`
				Parent  int    `json:"parent"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_unix_ns"`
				EndNS   int64  `json:"end_unix_ns"`
			}{t.spans[0].cal, i, s.parent, s.name, s.start.UnixNano(), s.end.UnixNano()})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
