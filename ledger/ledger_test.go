package main

import (
	"reflect"
	"testing"
	"time"
)

// An injected extra journal flush must show in the per-layer journal count
// and make the benchmark's own comparison flag server_fsyncs_per_op.
func TestExtraFlushIsCaught(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra bool) *phase {
		p, err := runExportCommit(runOpts{seed: 1, dur: time.Second, dir: t.TempDir(), traced: true, extraSync: extra})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, cand := run(false), run(true)
	bj := perLayer(base)["qrpc.journal.fsyncs_per_op"].Value
	cj := perLayer(cand)["qrpc.journal.fsyncs_per_op"].Value
	if cj-bj < 1 {
		t.Errorf("qrpc.journal.fsyncs_per_op %.3f -> %.3f, want a rise of at least 1", bj, cj)
	}
	res := func(p *phase) []result { return []result{{Correct: true, Metrics: endToEnd(p)}} }
	for _, v := range compare(spec, res(base), res(cand)) {
		if v.metric == "server_fsyncs_per_op" {
			if !v.worse() {
				t.Errorf("server_fsyncs_per_op %.3f -> %.3f not flagged worse (bound %.2f)", v.base, v.cand, v.bound)
			}
			return
		}
	}
	t.Error("comparison did not report server_fsyncs_per_op")
}

// slowlink_sync runs under virtual time: one seed gives identical virtual
// figures, and another seed gives other inputs.
func TestSlowlinkDeterminism(t *testing.T) {
	run := func(seed int64) map[string]metricVal {
		p, err := runSlowlinkSync(runOpts{seed: seed, dur: time.Millisecond, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return endToEnd(p)
	}
	a, b := run(7), run(7)
	for _, m := range []string{"sync_virtual_s", "wire_bytes_per_op", "latency_p50_ms", "latency_p99_ms"} {
		if a[m] != b[m] {
			t.Errorf("seed 7 twice: %s %v != %v", m, a[m].Value, b[m].Value)
		}
	}
	if reflect.DeepEqual(newSlowScenario(7), newSlowScenario(8)) {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
	if c := run(8); c["wire_bytes_per_op"] == a["wire_bytes_per_op"] && c["sync_virtual_s"] == a["sync_virtual_s"] {
		t.Error("seeds 7 and 8 measured identical wire bytes and sync time")
	}
}

func TestCompareDirections(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{"lat", "ms", "lower", 0.1}, {"rate", "1/s", "higher", 0.1}}}
	res := func(lat, rate float64) []result {
		return []result{{Metrics: map[string]metricVal{"lat": {lat, "ms"}, "rate": {rate, "1/s"}}}}
	}
	for _, c := range []struct {
		lat, rate       float64
		latBad, rateBad bool
	}{
		{1.05, 95, false, false},
		{1.2, 100, true, false},
		{0.5, 85, false, true},
		{1.0, 200, false, false},
	} {
		got := map[string]bool{}
		for _, v := range compare(spec, res(1, 100), res(c.lat, c.rate)) {
			got[v.metric] = v.worse()
		}
		if got["lat"] != c.latBad || got["rate"] != c.rateBad {
			t.Errorf("lat %v rate %v: worse = %v, want lat %v rate %v", c.lat, c.rate, got, c.latBad, c.rateBad)
		}
	}
}
