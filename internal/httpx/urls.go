package httpx

import (
	"fmt"
	"os"
	"strings"
)

// ReadURLFile reads a file of base URLs: one URL per token, whitespace-
// or comma-separated, blank lines and #-comments ignored, a trailing
// "/" dropped. flag names the file in a read error and noun names what
// a URL without a scheme is in its refusal ("backend", "target").
func ReadURLFile(path, flag, noun string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", flag, err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\r' }) {
			u := strings.TrimSuffix(tok, "/")
			if !strings.Contains(u, "://") {
				return nil, fmt.Errorf("%s: %s %q needs a scheme (http://host:port)", path, noun, tok)
			}
			out = append(out, u)
		}
	}
	return out, nil
}

// MergeURLs unions URL lists preserving first-seen order.
func MergeURLs(lists ...[]string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, u := range l {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}
