package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval around calls into a layer. A span either
// covers a single call (Calls == 1, BusyNS == EndNS-StartNS) or aggregates
// many short calls timed individually (StartNS/EndNS bound the first and
// last, BusyNS is their summed duration). Parent is the enclosing span's
// ID (0 for a root); Run identifies the workload run it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls"`
	BusyNS  int64  `json:"busy_ns"`
}

// recorder keeps a run's spans in memory; write emits them when the run
// ends. It is single-goroutine: every span is opened and closed by the
// benchmark's driving goroutine.
type recorder struct {
	run   string
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run} }

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, StartNS: nowNS(), Calls: 1})
	return len(r.spans)
}

// end closes span id and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	s := &r.spans[id-1]
	s.EndNS = nowNS()
	s.BusyNS = s.EndNS - s.StartNS
	return s.BusyNS
}

// aggregate records calls individually timed calls under parent, spanning
// [start, end] and busy for busyNS in total.
func (r *recorder) aggregate(name string, parent int, start, end, calls, busyNS int64) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, StartNS: start, EndNS: end, Calls: calls, BusyNS: busyNS})
	return len(r.spans)
}

// self returns span id's self time: its busy time minus its children's.
func (r *recorder) self(id int) int64 {
	t := r.spans[id-1].BusyNS
	for _, s := range r.spans {
		if s.Parent == id {
			t -= s.BusyNS
		}
	}
	return t
}

// write stores the spans as JSON lines at path, creating its directory.
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
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// callTimer accumulates individually timed calls into one aggregate span.
type callTimer struct {
	first, last int64
	calls, busy int64
}

func (t *callTimer) add(start, end int64) { t.addN(start, end, 1) }

// addN records n calls timed together as one interval.
func (t *callTimer) addN(start, end, n int64) {
	if t.calls == 0 {
		t.first = start
	}
	t.last = end
	t.calls += n
	t.busy += end - start
}

func (t *callTimer) record(r *recorder, name string, parent int) int {
	return r.aggregate(name, parent, t.first, t.last, t.calls, t.busy)
}
