package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// watermarkReport is the /watermarks JSON document: the LSN ladder, the
// derived lags, and any watchdog trips so far.
type watermarkReport struct {
	Taken      time.Time         `json:"taken"`
	Watermarks []WatermarkState  `json:"watermarks"`
	Lags       map[string]uint64 `json:"lags,omitempty"`
	Trips      []Trip            `json:"trips,omitempty"`
}

// ladderLags derives the standard lag view from the current watermark
// values: singleton rungs by name, per-replica rungs keyed name/replica.
func (s *WatermarkSet) ladderLags() map[string]uint64 {
	if s == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, edge := range ladder {
		leader := s.Watermark(edge.leader, "").Value()
		for _, w := range s.rungs(edge.follower) {
			var lag uint64
			if cur := w.Value(); leader > cur {
				lag = leader - cur
			}
			out[lagName(edge.follower, w.replica)] = lag
		}
	}
	return out
}

func lagName(follower, replica string) string {
	name := follower
	switch follower {
	case WMHardened:
		name = "lz.harden_lag_lsn"
	case WMPromoted:
		name = "xlog.promote_lag_lsn"
	case WMDestaged:
		name = "xlog.destage_lag_lsn"
	case WMApplied:
		name = "pageserver.apply_lag_lsn"
	case WMSecondary:
		name = "compute.apply_lag_lsn"
	}
	return key(name, replica)
}

// NewHTTPHandler builds the observability mux:
//
//	/metrics       Prometheus text: counters, gauges, histogram buckets,
//	               and the watermark ladder
//	/metrics.json  the raw registry snapshot (what socrates-top -addr polls)
//	/watermarks    the LSN ladder + derived lags + watchdog trips (JSON)
//	/flight        the flight-recorder ring as time-ordered JSONL
//	/traces        retained trace IDs; /traces?id=N renders one span tree
//	/debug/pprof/  the standard Go profiling endpoints
//
// Any handle of the plane may be nil; its endpoint then serves an empty
// (but well-formed) response.
func NewHTTPHandler(o Plane) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error means the scraper hung up: nothing to recover.
		_ = o.Metrics.WritePrometheus(w)
		_ = writePrometheusWatermarks(w, o.Watermarks)
		_ = writePrometheusWaits(w, o.Waits)
	})

	mux.HandleFunc("/waits", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = writePrometheusWaits(w, o.Waits)
			return
		}
		writeJSON(w, o.Waits.Report())
	})

	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, o.Metrics.Snapshot())
	})

	mux.HandleFunc("/watermarks", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, watermarkReport{
			Taken:      time.Now(),
			Watermarks: o.Watermarks.Snapshot(),
			Lags:       o.Watermarks.ladderLags(),
			Trips:      o.Watchdog.Trips(),
		})
	})

	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = o.Flight.Dump(w)
	})

	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			node := o.Tracer.Trace(TraceID(id))
			if node == nil {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			writeJSON(w, node)
			return
		}
		writeJSON(w, o.Tracer.TraceIDs())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "socrates observability plane\n"+
			"  /metrics       prometheus text (counters, gauges, histograms, watermarks, waits)\n"+
			"  /metrics.json  raw registry snapshot\n"+
			"  /watermarks    LSN ladder + lags + watchdog trips\n"+
			"  /waits         wait-class sketches, global + per tier (JSON; ?format=prom)\n"+
			"  /flight        flight-recorder ring (JSONL)\n"+
			"  /traces        trace IDs; ?id=N for one span tree\n"+
			"  /debug/pprof/  Go profiling\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPServer is a running observability listener.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for the handler on addr (":0" picks a free
// port; read the bound address back with Addr).
func Serve(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() {
		// Serve returns ErrServerClosed on Close; a real accept error ends the
		// listener, which Close surfaces.
		_ = srv.Serve(ln)
	}()
	return &HTTPServer{ln: ln, srv: srv}, nil
}

// Addr reports the bound listen address.
func (s *HTTPServer) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *HTTPServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
