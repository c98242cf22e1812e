package httpx

import (
	"fmt"
	"io"
	"net/http"
)

// Metrics writes a /metrics answer in the Prometheus text exposition
// format: unlabeled series with their HELP lines, and labeled families,
// a HELP line followed by one series per label set. Values print with
// %v, so integers print as integers and floats in %g form.
type Metrics struct{ w io.Writer }

// NewMetrics starts a /metrics answer on w.
func NewMetrics(w http.ResponseWriter) Metrics {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return Metrics{w}
}

// Scalar writes one unlabeled series with its HELP line.
func (m Metrics) Scalar(name, help string, value any) {
	m.Family(name, help)
	m.Sample(name, value)
}

// Family writes the HELP line of a labeled family.
func (m Metrics) Family(name, help string) { fmt.Fprintf(m.w, "# HELP %s %s\n", name, help) }

// Sample writes one series; labels alternate names and values, and
// each value is written quoted.
func (m Metrics) Sample(name string, value any, labels ...string) {
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		name += fmt.Sprintf("%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		name += "}"
	}
	fmt.Fprintf(m.w, "%s %v\n", name, value)
}
