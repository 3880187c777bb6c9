//! One benchmark for the whole ENV → NWS loop.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <deploy_churn|monitor_faults|query_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload from the seed, checks its outputs, and prints
//! every metric by name with its unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`;
//! with `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. A traced run first repeats the untraced run (its
//! fingerprint must match: outputs repeat for a seed), then records spans,
//! writes them to `.bench_out/`, prints the per-layer table and reports
//! the tracing overhead. A failed check exits non-zero and prints no
//! result.

mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use stats::{median, Summary};
use trace::{layer_table, spans_jsonl, LayerRow, Tracer};
use workload::{Outcome, Profile, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value }
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let serve_p50_us = median(&o.wave_us);
    vec![
        metric("setup_s", "s", median(&o.setup_s)),
        metric("deploy_s", "s", median(&o.deploy_s)),
        metric("repair_s", "s", median(&o.repair_s)),
        metric("map_sim_s", "sim_s", o.map_sim_s.iter().sum::<f64>() / o.map_sim_s.len() as f64),
        metric("sim_rate", "sim_s/s", median(&o.sim_rate)),
        metric(
            "availability",
            "fraction",
            o.coverage.iter().sum::<f64>() / o.coverage.len() as f64,
        ),
        metric("recovery_p50_s", "sim_s", median(&o.recovery_s)),
        metric("serve_p50_us", "us", serve_p50_us),
        // Closed-loop throughput of the typical wave: the mean wave time is
        // set by the machine's scheduling tail, not by the program.
        metric("serve_kqps", "kkeys/s", workload::WAVE_KEYS as f64 / serve_p50_us * 1e3),
        metric("estimate_p50_us", "us", median(&o.estimate_us)),
        metric("insim_p50_ms", "ms", median(&o.insim_ms)),
        metric("publish_p50_ms", "ms", median(&o.publish_ms)),
        metric("ok_frac", "fraction", 1.0 - o.failed as f64 / o.attempted as f64),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Span names whose summed wall time is a per-layer metric, with the
/// metric's name.
const TIMED_LAYERS: [(&str, &str); 16] = [
    ("synth", "synth.ms"),
    ("routing.build", "routing.build_ms"),
    ("churn.apply", "churn.apply_ms"),
    ("engine.run", "engine.run_ms"),
    ("mapper.map", "mapper.map_ms"),
    ("mapper.remap", "mapper.remap_ms"),
    ("planner", "planner.ms"),
    ("validate", "validate.ms"),
    ("repair", "repair.ms"),
    ("manager.apply", "manager.apply_ms"),
    ("manager.reconfigure", "manager.reconfigure_ms"),
    ("nws.heal", "nws.heal_ms"),
    ("nws.query_batch", "nws.query_batch_ms"),
    ("serve.ingest", "serve.ingest_ms"),
    ("serve.publish", "serve.publish_ms"),
    ("aggregate.estimate", "aggregate.estimate_ms"),
];

/// Counters reported as they were counted, with their units.
const COUNTED: [(&str, &str); 28] = [
    ("churn.events", "count"),
    ("churn.dirty_hosts", "count"),
    ("engine.events", "count"),
    ("engine.flows", "count"),
    ("engine.messages", "count"),
    ("engine.dropped", "count"),
    ("engine.duplicated", "count"),
    ("disk.appends", "count"),
    ("disk.bytes_appended", "B"),
    ("disk.fsyncs", "count"),
    ("disk.bytes_read", "B"),
    ("disk.compactions", "count"),
    ("disk.bytes_torn", "B"),
    ("mapper.experiments", "count"),
    ("mapper.remap_experiments", "count"),
    ("planner.cliques", "count"),
    ("repair.delta_actions", "count"),
    ("nws.heals", "count"),
    ("nws.stores", "count"),
    ("nws.dup_stores", "count"),
    ("nws.rejected", "count"),
    ("nws.lookups", "count"),
    ("nws.points_served", "count"),
    ("nws.insim_stale", "count"),
    ("nws.stale_registrations", "count"),
    ("serve.stale", "count"),
    ("serve.misses", "count"),
    ("serve.epoch_lag", "count"),
];

fn per_layer(o: &Outcome, rows: &[LayerRow], remainder_ns: u64) -> Vec<Metric> {
    let count = |name: &str| o.counts.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    for (span, name) in TIMED_LAYERS {
        let ns = rows.iter().find(|r| r.name == span).map_or(0, |r| r.total_ns);
        out.push(metric(name, "ms", ns as f64 / 1e6));
    }
    for (name, unit) in COUNTED {
        out.push(metric(name, unit, count(name)));
    }
    let engine_ns = rows.iter().find(|r| r.name == "engine.run").map_or(0, |r| r.total_ns);
    out.push(metric("engine.ns_per_event", "ns", engine_ns as f64 / count("engine.events")));
    out.push(metric(
        "disk.bytes_per_store",
        "B",
        count("disk.bytes_appended") / count("nws.stores"),
    ));
    let remaps = count("mapper.remap_experiments") / count("mapper.remaps");
    out.push(metric(
        "mapper.probe_ratio",
        "ratio",
        count("mapper.experiments") / count("mapper.maps") / remaps,
    ));
    out.push(metric("mapper.sim_s", "sim_s", o.map_sim_s.iter().sum()));
    out.push(metric(
        "validate.intrusiveness",
        "ratio",
        count("validate.intrusiveness") / count("validate.calls"),
    ));
    let est = Summary::of(&o.estimate_us);
    out.push(metric("aggregate.estimate_p50_us", "us", est.p50));
    out.push(metric("aggregate.estimate_p99_us", "us", est.p99));
    out.push(metric("aggregate.estimates", "count", est.n as f64));
    out.push(metric("aggregate.static_frac", "fraction", count("aggregate.static") / est.n as f64));
    let waves = Summary::of(&o.wave_us);
    out.push(metric("serve.wave_us", "us", waves.p50));
    out.push(metric("serve.wave_p99_us", "us", waves.p99));
    out.push(metric("serve.waves", "count", waves.n as f64));
    out.push(metric("serve.keys", "count", (waves.n * workload::WAVE_KEYS) as f64));
    out.push(metric("serve.shard_skew", "ratio", count("serve.shard_skew") / count("serve.sites")));
    out.push(metric("trace.unattributed_ms", "ms", remainder_ns as f64 / 1e6));
    out
}

/// Process peak resident set size, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metadata(args: &Args, p: &Profile) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"rustc\": \"{}\", \"profile\": \"{}\", \"passes\": {}, \
         \"families\": {}, \"hosts\": {}, \"rounds_per_pass\": {}, \"waves_per_round\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        env!("E2EBENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        p.passes,
        p.families.len(),
        p.hosts,
        p.rounds,
        p.waves,
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let p = Profile::of(&args.workload, args.seconds).ok_or_else(|| {
        format!("unknown workload {:?}; expected one of {WORKLOADS:?}", args.workload)
    })?;
    println!("{}", metadata(args, &p));
    let untraced = workload::run(&p, args.seed, &Tracer::new(false))?;
    let e2e = end_to_end(&untraced);
    println!(
        "samples: {} passes, {} waves ({} beyond p99), {} estimates, {} in-sim batches, \
         {} publishes, {} recoveries, {} series; fingerprint {:016x}",
        untraced.setup_s.len(),
        untraced.wave_us.len(),
        Summary::of(&untraced.wave_us).beyond_p99(),
        untraced.estimate_us.len(),
        untraced.insim_ms.len(),
        untraced.publish_ms.len(),
        untraced.recovery_s.len(),
        untraced.coverage.len(),
        untraced.fingerprint
    );
    print_table("end-to-end:", &e2e);
    if !args.trace {
        check_finite(&e2e)?;
        println!("{}", result_json(&untraced, &e2e));
        return Ok(());
    }

    let tr = Tracer::new(true);
    let (traced, _) = tr.span("run", || workload::run(&p, args.seed, &tr));
    let traced = traced?;
    if traced.fingerprint != untraced.fingerprint {
        return Err(format!(
            "outputs did not repeat: fingerprint {:016x} untraced, {:016x} traced",
            untraced.fingerprint, traced.fingerprint
        ));
    }
    let spans = tr.into_spans();
    let (rows, remainder_ns) = layer_table(&spans, 0);
    let wall_ns = spans[0].duration_ns();
    println!("per-layer self time over the traced run ({:.3} s):", wall_ns as f64 / 1e9);
    println!("  {:<22} {:>9} {:>12} {:>7}", "layer", "calls", "self ms", "share");
    for r in &rows {
        let share = r.self_ns as f64 / wall_ns as f64;
        println!(
            "  {:<22} {:>9} {:>12.3} {:>6.2}%",
            r.name,
            r.calls,
            r.self_ns as f64 / 1e6,
            share * 100.0
        );
    }
    let share = remainder_ns as f64 / wall_ns as f64;
    println!(
        "  {:<22} {:>9} {:>12.3} {:>6.2}%",
        "(unattributed)",
        "",
        remainder_ns as f64 / 1e6,
        share * 100.0
    );

    let t2e = end_to_end(&traced);
    let get =
        |ms: &[Metric], n: &str| ms.iter().find(|m| m.name == n).map_or(f64::NAN, |m| m.value);
    let mut layers = per_layer(&traced, &rows, remainder_ns);
    for (name, unit) in
        [("setup_s", "s"), ("deploy_s", "s"), ("sim_rate", "sim_s/s"), ("serve_p50_us", "us")]
    {
        let overhead = get(&t2e, name) - get(&e2e, name);
        layers.push(metric(&format!("trace.overhead_{name}"), unit, overhead));
    }
    layers.push(metric("trace.spans", "count", spans.len() as f64));
    print_table("per-layer:", &layers);

    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, spans_jsonl(&spans)).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {} spans to {path}", spans.len());
    check_finite(&layers)?;
    println!("{}", result_json(&traced, &layers));
    Ok(())
}

fn check_finite(metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a finite number", m.name)),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
