package main

import (
	"bytes"
	"strings"
	"testing"

	"crisp"
)

// TestPlotTimelineRowBound checks the chart keeps to maxTimelineRows rows
// at sample counts that do not divide evenly, and prints every sample of a
// series that already fits.
func TestPlotTimelineRowBound(t *testing.T) {
	for _, n := range []int{1, 40, 41, 79, 80, 81, 1000} {
		series := &crisp.IntervalSeries{Interval: 512}
		for i := 0; i < n; i++ {
			series.Samples = append(series.Samples, crisp.MetricsSample{Cycle: int64(i+1) * 512})
		}
		var out bytes.Buffer
		plotTimeline(&out, series, 100, 10)
		rows := strings.Count(out.String(), "\n")
		if rows > maxTimelineRows || rows < min(n, maxTimelineRows/2) {
			t.Errorf("%d samples: %d rows, want between %d and %d", n, rows, min(n, maxTimelineRows/2), maxTimelineRows)
		}
		if n <= maxTimelineRows && rows != n {
			t.Errorf("%d samples: %d rows, want every sample", n, rows)
		}
	}
}
