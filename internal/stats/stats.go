// Package stats provides the measurement toolkit for CRISP experiments:
// per-stream simulation counters, correlation metrics (Pearson r, MAPE),
// histograms, and plain-text table rendering for the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"crisp/internal/obs"
)

// Stream aggregates the per-stream counters the paper's per-stream-stats
// extension tracks. Statistics are kept per stream because aggregated
// counters are misleading under concurrent execution.
type Stream struct {
	Stream int
	Label  string

	Cycles      int64 // cycles from first issue to last commit of the stream
	WarpInsts   int64
	ThreadInsts int64

	L1Accesses int64
	L1Misses   int64
	L2Accesses int64
	L2Misses   int64
	DRAMReads  int64 // bytes
	DRAMWrites int64 // bytes

	TexAccesses int64 // TEX instructions issued to L1

	KernelsLaunched int
	CTAsLaunched    int

	// Stalls counts scheduler issue slots in which this stream's
	// earliest-ready warp could not issue, by cause (indexed by
	// obs.StallCause). Together with WarpInsts (issues) and the GPU's
	// empty-slot count these partition every scheduler slot.
	Stalls [obs.NumStallCauses]int64
}

// StallTotal is the total attributed stall slots across all causes.
func (s *Stream) StallTotal() int64 {
	var n int64
	for _, v := range s.Stalls {
		n += v
	}
	return n
}

// StallFraction reports cause's share of the stream's scheduler slots
// (issues + stalls); 0 when the stream never held a slot.
func (s *Stream) StallFraction(cause obs.StallCause) float64 {
	slots := s.WarpInsts + s.StallTotal()
	if slots == 0 {
		return 0
	}
	return float64(s.Stalls[cause]) / float64(slots)
}

// IPC is warp instructions per cycle over the stream's active window.
func (s *Stream) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WarpInsts) / float64(s.Cycles)
}

// L1HitRate is the L1 data-cache hit rate.
func (s *Stream) L1HitRate() float64 { return hitRate(s.L1Accesses, s.L1Misses) }

// L2HitRate is the L2 cache hit rate.
func (s *Stream) L2HitRate() float64 { return hitRate(s.L2Accesses, s.L2Misses) }

func hitRate(acc, miss int64) float64 {
	if acc == 0 {
		return 0
	}
	return 1 - float64(miss)/float64(acc)
}

// Add accumulates o into s (used when folding kernels of one stream).
func (s *Stream) Add(o *Stream) {
	s.WarpInsts += o.WarpInsts
	s.ThreadInsts += o.ThreadInsts
	s.L1Accesses += o.L1Accesses
	s.L1Misses += o.L1Misses
	s.L2Accesses += o.L2Accesses
	s.L2Misses += o.L2Misses
	s.DRAMReads += o.DRAMReads
	s.DRAMWrites += o.DRAMWrites
	s.TexAccesses += o.TexAccesses
	s.KernelsLaunched += o.KernelsLaunched
	s.CTAsLaunched += o.CTAsLaunched
	for i := range s.Stalls {
		s.Stalls[i] += o.Stalls[i]
	}
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when fewer than two points or zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MAPE returns the mean absolute percentage error of predictions pred
// against references ref, as a fraction (0.33 = 33%). Reference points
// equal to zero are skipped.
func MAPE(ref, pred []float64) float64 {
	if len(ref) != len(pred) || len(ref) == 0 {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i := range ref {
		if ref[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-ref[i]) / math.Abs(ref[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// GeoMean returns the geometric mean of xs (all must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Histogram is an integer-valued histogram with unit-width bins.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]int)} }

// Observe adds one sample.
func (h *Histogram) Observe(v int) { h.counts[v]++; h.total++ }

// Total reports the number of samples.
func (h *Histogram) Total() int { return h.total }

// Count reports the number of samples with value v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Mean reports the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s int
	for v, c := range h.counts {
		s += v * c
	}
	return float64(s) / float64(h.total)
}

// Mode reports the most frequent value (smallest on ties). Ties resolve
// to the smallest value without sorting: a single pass tracks the best
// (count, value) pair.
func (h *Histogram) Mode() int {
	best, bestC := 0, -1
	for v, c := range h.counts {
		if c > bestC || (c == bestC && v < best) {
			best, bestC = v, c
		}
	}
	if bestC < 0 {
		return 0
	}
	return best
}

// Quantile reports the q-quantile (0..1) of the samples. The sorted key
// slice is built exactly once per call.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	target := int(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	keys := h.sortedKeys()
	seen := 0
	for _, v := range keys {
		seen += h.counts[v]
		if seen >= target {
			return v
		}
	}
	return keys[len(keys)-1]
}

func (h *Histogram) sortedKeys() []int {
	keys := make([]int, 0, len(h.counts))
	for v := range h.counts {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	return keys
}

// String renders the histogram as an ASCII bar chart.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := 0
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	for _, v := range h.sortedKeys() {
		c := h.counts[v]
		bar := ""
		if maxC > 0 {
			bar = strings.Repeat("#", int(math.Round(40*float64(c)/float64(maxC))))
		}
		fmt.Fprintf(&b, "%6d | %-40s %d\n", v, bar, c)
	}
	return b.String()
}

// Table renders aligned plain-text tables for harness output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = len(hcell)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (the artifact's output
// format: "Several CSV files should be generated … contain simulation
// statistics such as execution cycles and cache hit rates"). Cells
// containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float with 3 significant decimals for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
