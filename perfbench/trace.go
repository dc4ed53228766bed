package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Derived spans are not timed
// here: their length is a duration the program reports (the solver
// time in faurelog.Stats), laid out inside their parent.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a run's root span
	Run     string `json:"run"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s Span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// benchLayer names the benchmark's own spans: runs, phases, streams
// and the answer check.
const benchLayer = "perfbench"

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced run pays one pointer test per call site.
type tracer struct {
	mu    sync.Mutex
	run   string
	base  time.Time
	spans []Span
}

func newTracer(run string) *tracer { return &tracer{run: run, base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, StartNS: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// derived records a child of parent whose duration the program
// reported, starting at offset from the parent's start.
func (t *tracer) derived(parent int, layer, name string, offset, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].StartNS + int64(offset)
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Layer: layer,
		StartNS: start, EndNS: start + int64(d), Derived: true})
}

func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceSummary is what the traced run reports about its spans.
type traceSummary struct {
	// SelfMS is each layer's self time: its spans' durations minus the
	// part their child spans cover.
	SelfMS map[string]float64 `json:"self_ms"`
	// UnattributedFrac is the share of the root spans' wall time that
	// no layer's span covers: the self time of the benchmark's own root
	// spans.
	UnattributedFrac float64 `json:"unattributed_frac"`
}

// summarize computes per-layer self time. Spans are keyed by (run,
// id); children of one parent do not overlap (calls are sequential,
// derived spans are laid end to end), so covered time is the sum of
// child durations, clipped to the parent.
func summarize(spans []Span) traceSummary {
	type key struct {
		run string
		id  int
	}
	child := map[key]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[key{s.Run, s.Parent}] += s.dur()
		}
	}
	out := traceSummary{SelfMS: map[string]float64{}}
	var rootWall, rootSelf float64
	for _, s := range spans {
		self := s.dur() - child[key{s.Run, s.ID}]
		if self < 0 {
			self = 0
		}
		out.SelfMS[s.Layer] += self / 1e6
		if s.Parent == 0 {
			rootWall += s.dur()
			if s.Layer == benchLayer {
				rootSelf += self
			}
		}
	}
	out.UnattributedFrac = ratio(rootSelf, rootWall)
	return out
}

// writeTrace writes the spans and their summary as one JSON file.
func writeTrace(path string, spans []Span, sum traceSummary) error {
	b, err := json.MarshalIndent(struct {
		Summary traceSummary `json:"summary"`
		Spans   []Span       `json:"spans"`
	}{sum, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
