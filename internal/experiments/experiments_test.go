package experiments

import (
	"testing"
	"time"
)

// TestShapes runs every experiment at a scale small enough for unit tests
// (the bench suite runs the full windows) and fails on what the experiment
// itself calls a lost shape. Host-dependent targets are Notes, not Shape.
func TestShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	quick := Options{
		Measure: 250 * time.Millisecond,
		WarmUp:  50 * time.Millisecond,
		SF:      400,
		Threads: 8,
	}
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", rep)
			if rep.Shape != nil {
				t.Fatalf("shape lost: %v", rep.Shape)
			}
			if len(rep.rows) == 0 || len(rep.Values) == 0 {
				t.Fatalf("empty report: %d rows, %d values", len(rep.rows), len(rep.Values))
			}
			for _, row := range rep.rows {
				if len(row) != len(rep.header) {
					t.Fatalf("row %q has %d cells under a %d-column header", row, len(row), len(rep.header))
				}
			}
		})
	}
}
