package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters is one scrape of a fleet: every sample of every daemon's
// /metrics summed by series name with the labels dropped, so
// atmcac_request_seconds_sum is the total over ops and daemons. Histogram
// buckets are left out.
type counters map[string]float64

// parseProm adds the samples of one Prometheus text exposition to c.
func parseProm(c counters, text *bufio.Scanner) error {
	for text.Scan() {
		line := strings.TrimSpace(text.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return fmt.Errorf("malformed sample %q: %w", line, err)
		}
		name := line[:cut]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			name = name[:brace]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		c[name] += v
	}
	return text.Err()
}

// scrape reads /metrics of every daemon of the fleet.
func scrape(f *fleet) (counters, error) {
	c := counters{}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, d := range f.daemons {
		resp, err := client.Get("http://" + d.metrics + "/metrics")
		if err != nil {
			return nil, err
		}
		err = parseProm(c, bufio.NewScanner(resp.Body))
		_ = resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.metrics, err)
		}
	}
	return c, nil
}

// usage sums consumed CPU seconds and peak resident memory over the
// fleet's daemons.
func usage(f *fleet) (cpuSeconds, rssPeakMB float64, err error) {
	for _, d := range f.daemons {
		cpu, rss, err := d.cpuAndRSS()
		if err != nil {
			return 0, 0, err
		}
		cpuSeconds += cpu
		rssPeakMB += rss
	}
	return cpuSeconds, rssPeakMB, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// count tallies samples by op kind.
func count(samples []sample) map[opKind]int {
	n := make(map[opKind]int)
	for _, s := range samples {
		n[s.kind]++
	}
	return n
}

// fleetMetrics turns three scrapes — before the open loop, between the
// loops, after the closed loop — into the fleet.* per-layer metrics. The
// daemon-side mean latencies come from the open loop, so they can be read
// against the client's paced percentiles; the per-operation costs
// (fsyncs, coalescing, bytes, CPU, 2PC legs) come from the closed loop,
// where they decide sat_ops_s. cpu is the daemons' CPU seconds over the
// closed loop.
func fleetMetrics(start, mid, end counters, cpu, rssPeakMB float64, open, closed []sample) []metric {
	paced := func(name string) float64 { return mid[name] - start[name] }
	sat := func(name string) float64 { return end[name] - mid[name] }
	mean := func(hist string) float64 { return ratio(paced(hist+"_sum"), paced(hist+"_count")) * 1e6 }
	acked := count(closed)
	writes := float64(acked[opSetup] + acked[opTeardown])
	return []metric{
		{name: "fleet.fsyncs_per_op", value: ratio(sat("atmcac_journal_fsync_seconds_count"), writes), unit: "count"},
		{name: "fleet.group_commit_size", value: ratio(sat("atmcac_journal_group_commit_ops_sum"), sat("atmcac_journal_group_commit_ops_count")), unit: "count"},
		{name: "fleet.journal_bytes_per_op", value: ratio(sat("atmcac_journal_append_bytes_total"), writes), unit: "B"},
		{name: "fleet.prepares_per_setup", value: ratio(sat("atmcac_shard_prepares_total"), float64(acked[opSetup])), unit: "count"},
		{name: "fleet.shard_aborts", value: sat("atmcac_shard_aborts_total"), unit: "count"},
		{name: "fleet.cpu_s_per_kop", value: ratio(cpu, float64(len(closed))/1000), unit: "s"},
		{name: "fleet.rss_peak_mb", value: rssPeakMB, unit: "MB"},
		{name: "fleet.fsync_mean_us", value: mean("atmcac_journal_fsync_seconds"), unit: "us"},
		{name: "fleet.core_setup_mean_us", value: mean("atmcac_admission_setup_seconds"), unit: "us"},
		{name: "fleet.hop_check_mean_us", value: mean("atmcac_admission_hop_check_seconds"), unit: "us"},
		// Time inside the state-holding daemons per client operation,
		// group-commit wait included: the client's paced latency minus
		// this is transport, codec, queueing and, on a sharded fleet,
		// the coordinator.
		{name: "fleet.request_mean_us", value: ratio(paced("atmcac_request_seconds_sum"), float64(len(open))) * 1e6, unit: "us"},
	}
}
