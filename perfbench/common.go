package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"time"

	"afs/internal/obs"
	"afs/internal/stream"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces. The last line of standard
// output is its JSON form (correct, attempted, failed, metrics); details
// carries extra values the smoke test inspects but the benchmark does not
// print.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	details map[string]float64
	checks  []string // failed output checks, for the log
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, details: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// ops accounts a batch of attempted operations and how many of them failed.
func (r *report) ops(attempted, failed uint64) {
	r.Attempted += attempted
	r.Failed += failed
}

// clock is a monotonic nanosecond clock anchored at process start.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// latHist is a log-linear histogram of nanosecond latencies: exact below
// 128 ns, then 64 buckets per power of two (1.6% wide). Quantiles
// interpolate within the bucket, so they move continuously with the data
// instead of snapping to bucket edges. The zero value is ready to use.
type latHist struct {
	counts []uint64
	n      uint64
}

func latBucket(v uint64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e lies in [64, 128)
	return 128 + (e-1)*64 + int(v>>uint(e)) - 64
}

// latBucketRange returns bucket i's lower edge and width.
func latBucketRange(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := (i-128)/64 + 1
	m := (i-128)%64 + 64
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := latBucket(uint64(ns))
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		if i >= len(h.counts) {
			h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
		}
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := latBucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := latBucketRange(len(h.counts) - 1)
	return lo + w
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// scrape is one read of the process-wide metrics registry, through the
// same JSON surface an operator scrapes.
type scrape map[string]json.RawMessage

func scrapeObs() scrape {
	var buf bytes.Buffer
	if err := obs.Default().WriteVarsJSON(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	s := scrape{}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		panic(err) // the registry renders valid JSON by construction
	}
	return s
}

// counter returns a counter's value (0 when absent).
func (s scrape) counter(name string) float64 {
	var v float64
	_ = json.Unmarshal(s[name], &v) // absent or null reads as 0
	return v
}

// hist returns a histogram's sample count and sum.
func (s scrape) hist(name string) (count, sum float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	_ = json.Unmarshal(s[name], &h) // absent reads as zero
	return h.Count, h.Sum
}

// delta returns after-before for a counter.
func delta(before, after scrape, name string) float64 {
	return after.counter(name) - before.counter(name)
}

// digests fold every stream's committed corrections into a per-stream
// FNV-1a hash, so two runs compare bit for bit without retaining the
// corrections. Calls for distinct streams may run concurrently.
type digests struct {
	h []uint64
	n []uint64
}

func newDigests(streams int) *digests {
	d := &digests{h: make([]uint64, streams), n: make([]uint64, streams)}
	for i := range d.h {
		d.h[i] = 14695981039346656037
	}
	return d
}

func (d *digests) add(s int, c stream.Correction) {
	h := d.h[s]
	for _, x := range [4]uint64{uint64(c.Kind), uint64(uint32(c.Qubit)), uint64(uint32(c.Ancilla)), uint64(c.Round)} {
		h ^= x
		h *= 1099511628211
	}
	d.h[s] = h
	d.n[s]++
}

// mismatches returns the streams listed in which whose digests differ.
func (d *digests) mismatches(o *digests, which []int) []int {
	var bad []int
	for _, s := range which {
		if d.h[s] != o.h[s] || d.n[s] != o.n[s] {
			bad = append(bad, s)
		}
	}
	return bad
}

func (d *digests) corrections() uint64 {
	var sum uint64
	for _, n := range d.n {
		sum += n
	}
	return sum
}

// splitmix derives the i-th independent 64-bit seed from a base seed.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func allStreams(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
