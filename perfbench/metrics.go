package main

// endToEnd lists the metrics a --trace 0 run prints, with their units,
// in BENCHMARK.json order. Every workload prints all of them; where a
// workload has no request of a kind, the metric measures that
// workload's nearest operation (see the workload's runner).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"compress_mbps", "MB/s"},
	{"compress_1t_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"ratio", "x"},
	{"read_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints. client.read_p99_ms
// and client.upload_* are latencies of the traced run's untraced pass:
// reported, but not bounded end-to-end metrics, because on a shared
// machine they measure its stalls and its disk more than the program
// (every --trace 0 run records them too, as "latency"). A workload that
// does not exercise a layer reports 0 for its metrics. serve-read-hot
// fails its run if store.get_calls or blockcache.fills is not 0 (no
// store.Get or decode after warm-up); dump-load-ff cannot call store,
// blockcache or server, as none of the packages it calls (core, eri,
// dataset, basis) imports them.
var perLayer = []struct{ name, unit string }{
	{"eri.generate_s", "s"},
	{"core.encode_us_per_block", "us"},
	{"core.parallel_eff", "fraction"},
	{"core.decode_us_per_block", "us"},
	{"core.allocs_per_block", "count"},
	{"core.bytes_per_block", "count"},
	{"core.stream_write_ms_p50", "ms"},
	{"core.stream_write_ms_p99", "ms"},
	{"telemetry.collector_overhead_frac", "fraction"},
	{"store.create_us_p99", "us"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_p99", "ms"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.read_us_p50", "us"},
	{"store.read_us_p99", "us"},
	{"store.bytes_per_raw_byte", "count"},
	{"store.get_calls", "count"},
	{"blockcache.hit_rate", "fraction"},
	{"blockcache.evictions_per_read", "count"},
	{"blockcache.dedup_waits", "count"},
	{"blockcache.hit_us_p99", "us"},
	{"blockcache.fills", "count"},
	{"server.read_handler_us_p50", "us"},
	{"server.read_handler_us_p99", "us"},
	{"server.upload_handler_ms_p50", "ms"},
	{"server.upload_handler_ms_p99", "ms"},
	{"server.overhead_us_p50", "us"},
	{"server.goroutines_max", "count"},
	{"server.metrics_read_p99_ms", "ms"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"edge.read_us_p50", "us"},
	{"edge.read_us_p99", "us"},
	{"client.read_p99_ms", "ms"},
	{"client.upload_p50_ms", "ms"},
	{"client.upload_p99_ms", "ms"},
	{"client.lag_ms_p99", "ms"},
	{"client.backlog_end", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.coverage_min", "fraction"},
}

// fillMissing gives every listed metric a value: metrics of layers the
// workload did not exercise read 0.
func (r *report) fillMissing(list []struct{ name, unit string }) {
	for _, m := range list {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0, 0)
		}
	}
}

// unitOf returns the unit a metric name is listed with.
func unitOf(name string) string {
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range l {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: unlisted metric " + name) //lint:nopanic-ok unreachable: every name the runners pass is listed, and the smoke test runs them all
}

// put records a listed metric with its listed unit.
func (r *report) put(name string, v float64, n int) { r.set(name, unitOf(name), v, n) }
