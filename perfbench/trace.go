package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed region the benchmark records around a call into a
// layer (or stitches in from a server's X-Micronets-Trace span tree).
// Spans of one request share Req; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the
// workload ends, so recording costs one append under a lock.
type recorder struct {
	mu    sync.Mutex
	spans []span // guarded by mu
}

// add records a span and returns its ID for use as a child's parent.
func (r *recorder) add(req int64, parent int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes attributes every instant of every root span to exactly one
// span — the deepest span active at that instant, the latest-started one
// among equally deep siblings — after clipping each child to its
// parent's interval. It returns the attributed nanoseconds per span
// name. Because each instant is counted once, the values sum to the
// total duration of the roots: a layer's self time is its span minus
// the part of that interval its children cover, and overlapping
// children (the rows of one client batch) are not double-counted.
func selfTimes(spans []span) (map[string]int64, error) {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		s := spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return nil, fmt.Errorf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = &s
	}
	depth := make(map[int]int, len(spans))
	var depthOf func(id int, seen int) (int, error)
	depthOf = func(id int, seen int) (int, error) {
		if d, ok := depth[id]; ok {
			return d, nil
		}
		s := byID[id]
		if s.Parent == 0 {
			depth[id] = 0
			return 0, nil
		}
		p, ok := byID[s.Parent]
		if !ok {
			return 0, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if seen > len(spans) {
			return 0, fmt.Errorf("span %d is in a parent cycle", s.ID)
		}
		d, err := depthOf(p.ID, seen+1)
		if err != nil {
			return 0, err
		}
		depth[id] = d + 1
		return d + 1, nil
	}
	ids := make([]int, 0, len(spans))
	for id := range byID {
		if _, err := depthOf(id, 0); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	// Clip parents before children so a grandchild is clipped to an
	// already-clipped parent.
	sort.Slice(ids, func(i, j int) bool {
		if depth[ids[i]] != depth[ids[j]] {
			return depth[ids[i]] < depth[ids[j]]
		}
		return ids[i] < ids[j]
	})
	root := make(map[int]int, len(spans))
	for _, id := range ids {
		s := byID[id]
		if s.Parent == 0 {
			root[id] = id
			continue
		}
		p := byID[s.Parent]
		root[id] = root[p.ID]
		s.Start = max(s.Start, p.Start)
		s.End = min(s.End, p.End)
		if s.End < s.Start {
			s.End = s.Start
		}
	}
	trees := map[int][]*span{}
	for _, id := range ids {
		trees[root[id]] = append(trees[root[id]], byID[id])
	}
	out := map[string]int64{}
	for _, tree := range trees {
		var cuts []int64
		for _, s := range tree {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			var best *span
			for _, s := range tree {
				if s.Start > a || s.End < b {
					continue
				}
				if best == nil || depth[s.ID] > depth[best.ID] ||
					(depth[s.ID] == depth[best.ID] && (s.Start > best.Start ||
						(s.Start == best.Start && s.ID > best.ID))) {
					best = s
				}
			}
			if best != nil {
				out[best.Name] += b - a
			}
		}
	}
	return out, nil
}
