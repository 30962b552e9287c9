package main

// metricDef names one reported metric and its unit. The lists below
// must name the same metrics as BENCHMARK.json; main_test.go checks it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_wall_s", "s"},
	{"norm_trials_per_s", "1/s"},
}

// perLayer are the metrics of single layers, printed by every traced
// run. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"lang.compile_ms", "ms"},
	{"lang.static_instrs", "count"},
	{"interp.lower_ms", "ms"},
	{"interp.golden_minstr_per_s", "Minstr/s"},
	{"fault.prepare_ms", "ms"},
	{"fault.golden_hits", "count"},
	{"fault.golden_misses", "count"},
	{"fault.trial_ms_p50", "ms"},
	{"fault.trial_ms_p90", "ms"},
	{"fault.trial_samples", "count"},
	{"fault.trial_busy_frac", "ratio"},
	{"fault.inject_prefix_frac", "ratio"},
	{"fault.post_inject_minstr", "Minstr"},
	{"fault.overrun_frac", "ratio"},
	{"fault.masked_frac", "ratio"},
	{"fault.soc_frac", "ratio"},
	{"fault.symptom_frac", "ratio"},
	{"fault.journal_bytes", "bytes"},
	{"fault.sections", "count"},
	{"fault.section_trials", "count"},
	{"fault.completion_gap_ms_p99", "ms"},
	{"compose.whole_ms", "ms"},
	{"campaign.submit_ms", "ms"},
	{"campaign.acquire_ms_p50", "ms"},
	{"campaign.ack_ms_p50", "ms"},
	{"campaign.ack_ms_p99", "ms"},
	{"campaign.ack_share", "ratio"},
	{"campaign.lease_s_p50", "s"},
	{"campaign.idle_polls", "count"},
	{"campaign.requests", "count"},
	{"campaign.http_errors", "count"},
	{"campaign.result_tail_ms", "ms"},
	{"svm.train_ipas_s", "s"},
	{"svm.train_baseline_s", "s"},
	{"svm.grid_points", "count"},
	{"svm.train_samples", "count"},
	{"dup.protect_ms", "ms"},
	{"dup.duplicated_pct", "%"},
	{"dup.checks", "count"},
	{"core.protected_slowdown", "ratio"},
	{"core.soc_reduction_pct", "%"},
	{"core.collect_s", "s"},
	{"core.eval_s", "s"},
	{"core.eval_trials", "count"},
	{"core.unattributed_s", "s"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"host.setup_s", "s"},
	{"host.wall_s", "s"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}
