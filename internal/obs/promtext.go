package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the registry and the
// watermark ladder. Zero-dependency by design, like the rest of the obs
// package: the format is a few lines of text framing per instrument.
//
// Naming: instrument names are dot-separated ("lz.write.latency"); the
// exposition prefixes "socrates_" and maps dots to underscores, so the
// histogram above exports as socrates_lz_write_latency_seconds with
// cumulative le-labeled buckets.

// promName maps an instrument name to a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("socrates_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects.
func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus renders every instrument in the registry: counters and
// gauges as single series, histograms as cumulative le-bucket families
// with _sum and _count (bucket bounds in seconds).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r != nil {
		r.mu.Lock()
		counts := make(map[string]*Counter, len(r.counts))
		for name, c := range r.counts {
			counts[name] = c
		}
		gauges := make(map[string]*Gauge, len(r.gauges))
		for name, g := range r.gauges {
			gauges[name] = g
		}
		hists := make(map[string]*Histogram, len(r.hists))
		for name, h := range r.hists {
			hists[name] = h
		}
		r.mu.Unlock()

		for _, name := range sortedKeys(counts) {
			pn := promName(name)
			fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
			fmt.Fprintf(bw, "%s %d\n", pn, counts[name].Value())
		}
		for _, name := range sortedKeys(gauges) {
			pn := promName(name)
			fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
			fmt.Fprintf(bw, "%s %d\n", pn, gauges[name].Value())
		}
		for _, name := range sortedKeys(hists) {
			pn := promName(name) + "_seconds"
			b := hists[name].Buckets()
			fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
			for i, up := range b.Uppers {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", pn, promFloat(up.Seconds()), b.Cumulative[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, b.Count)
			fmt.Fprintf(bw, "%s_sum %s\n", pn, promFloat(b.sum.Seconds()))
			fmt.Fprintf(bw, "%s_count %d\n", pn, b.Count)
		}
	}
	return bw.Flush()
}

// writePrometheusWatermarks renders the LSN ladder as one gauge family,
// labeled by watermark name and replica:
//
//	socrates_watermark_lsn{name="lz.hardened_lsn",replica=""} 4127
func writePrometheusWatermarks(w io.Writer, ws *WatermarkSet) error {
	bw := bufio.NewWriter(w)
	if ws != nil {
		states := ws.Snapshot()
		if len(states) > 0 {
			fmt.Fprint(bw, "# TYPE socrates_watermark_lsn gauge\n")
			for _, st := range states {
				fmt.Fprintf(bw, "socrates_watermark_lsn{name=%q,replica=%q} %d\n",
					st.Name, st.Replica, st.LSN)
			}
		}
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
