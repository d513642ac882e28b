package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample maps a series as written in the Prometheus text format —
// the family name followed by its label set, e.g.
// `graphdiam_store_cache_hits_total{tier="local"}` — to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: one
// "series value" pair per line, '#' lines are comments. Label values may
// contain spaces and escaped quotes, so the value is whatever follows the
// last space outside braces.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.LastIndexByte(line, '}')
		var series, rest string
		if end >= 0 {
			series, rest = line[:end+1], strings.TrimSpace(line[end+1:])
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("prom: no value on line %q", line)
			}
			series, rest = line[:sp], strings.TrimSpace(line[sp+1:])
		}
		// A timestamp may follow the value; the value is the first field.
		if f := strings.Fields(rest); len(f) > 0 {
			rest = f[0]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value on line %q: %v", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// sub returns after − before per series; a series absent from before
// counts from zero (counters appear on first use).
func (after promSample) sub(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the family, optionally restricted to those
// whose label set contains each of the given `key="value"` fragments.
func (s promSample) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, lbl, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, want := range labels {
			if !strings.Contains(lbl, want) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
