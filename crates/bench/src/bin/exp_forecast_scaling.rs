//! Forecaster query-serving at scale: query storms against a deployed NWS
//! system on synthetic-family topologies, plus battery-level replay-vs-
//! incremental cost curves, emitted as `BENCH_forecaster.json`.
//!
//! Every storm row asserts the incremental engine's *contracts*, not just
//! its speed:
//!
//! * **bit-identity** — every served forecast equals replaying the stored
//!   ring through a fresh battery (`ForecasterBattery::classic`), field
//!   for field;
//! * **O(Δ) wire** — the steady-state storm (no new measurements) ships
//!   zero history points regardless of series length; the delta phase
//!   ships exactly one point per series;
//! * **directory economy** — one `WhereIs` per series ever, then cached.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_forecast_scaling
//! [--smoke] [out.json]`. `--smoke` keeps the 1k-query campus tier (the
//! CI configuration).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use netsim::engine::{Ctx, Engine, Process, ProcessId};
use netsim::prelude::*;
use netsim::synth::{synth, SynthFamily};
use nws::msg::NwsMsg;
use nws::{Forecast, ForecasterBattery, NwsSystem, NwsSystemSpec, Resource, SeriesKey};
use nws_bench::{f, BenchArgs, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2004;

struct StormRow {
    family: &'static str,
    hosts: usize,
    series: usize,
    points: usize,
    queries: usize,
    prime_ms: f64,
    cold_ms: f64,
    steady_ms: f64,
    steady_us_per_query: f64,
    steady_points_served: u64,
    lookups: u64,
    oracle_identical: bool,
}

struct BatteryRow {
    series_len: usize,
    replay_us: f64,
    steady_us: f64,
}

/// Bulk-injects measurement points as `Store` messages.
struct Injector {
    memory: ProcessId,
    batch: Vec<(SeriesKey, f64, f64)>,
}

impl Process<NwsMsg> for Injector {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        for (seq, (key, t, value)) in self.batch.drain(..).enumerate() {
            let m = NwsMsg::Store { key, seq: seq as u64 + 1, t, value };
            let size = m.wire_size();
            let _ = ctx.send(self.memory, size, m);
        }
    }
}

type Latest = Rc<RefCell<BTreeMap<SeriesKey, Option<Forecast>>>>;

/// Issues `total` queries round-robin over `keys`, one in flight at a
/// time, recording the latest forecast per key.
struct Storm {
    forecaster: ProcessId,
    keys: Vec<SeriesKey>,
    total: usize,
    issued: usize,
    latest: Latest,
}

impl Storm {
    fn next(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if self.issued == self.total {
            return;
        }
        let key = self.keys[self.issued % self.keys.len()].clone();
        self.issued += 1;
        let q = NwsMsg::Query { key };
        let size = q.wire_size();
        let _ = ctx.send(self.forecaster, size, q);
    }
}

impl Process<NwsMsg> for Storm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        self.next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryReply { key, forecast } = msg {
            self.latest.borrow_mut().insert(key, forecast);
            self.next(ctx);
        }
    }
}

/// Run one storm phase to completion; returns elapsed wall milliseconds.
fn run_storm(
    eng: &mut Engine<NwsMsg>,
    node: NodeId,
    forecaster: ProcessId,
    keys: &[SeriesKey],
    total: usize,
    latest: &Latest,
) -> f64 {
    eng.add_process(
        node,
        Box::new(Storm {
            forecaster,
            keys: keys.to_vec(),
            total,
            issued: 0,
            latest: latest.clone(),
        }),
    );
    let t = Instant::now();
    let horizon = eng.now() + TimeDelta::from_secs(1e7);
    eng.run_until(horizon);
    t.elapsed().as_secs_f64() * 1e3
}

/// Synthetic measurement stream for one series: a seeded random walk with
/// the flavour of a bandwidth signal.
fn series_values(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut x = 90.0 + rng.gen_range(-10.0..10.0);
    (0..n)
        .map(|_| {
            x += rng.gen_range(-1.0..1.0);
            x
        })
        .collect()
}

fn run_storm_tier(family: SynthFamily, hosts: usize, points: usize, queries: usize) -> StormRow {
    let sc = synth(family, SEED, hosts);
    let names = sc.input_names();
    let master = sc.master_name();
    let mut eng: Engine<NwsMsg> = Engine::new(sc.net.topo.clone());

    // Deploy name server + memory + forecaster on the master host; no
    // sensors — the storm injects measurements directly, so the series
    // population and history lengths are exact.
    let mut spec = NwsSystemSpec::minimal(&master, &[]);
    spec.cliques.clear();
    spec.series_capacity = points + 64;
    let sys = NwsSystem::deploy(&mut eng, &spec).expect("deploy");
    let (memory, handle) = &sys.memories[&master];
    let client_node = eng.topo().node_by_name(&master).expect("master resolves");

    // Three series per input host: CPU, free memory, bandwidth to the
    // next host — "hundreds of series" at the 100-host tiers.
    let keys: Vec<SeriesKey> = names
        .iter()
        .enumerate()
        .flat_map(|(i, h)| {
            let next = &names[(i + 1) % names.len()];
            [
                SeriesKey::host(Resource::CpuLoad, h),
                SeriesKey::host(Resource::FreeMemory, h),
                SeriesKey::link(Resource::Bandwidth, h, next),
            ]
        })
        .collect();

    // Prime: inject `points` measurements per series.
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xf0f0);
    let mut batch = Vec::with_capacity(keys.len() * points);
    let mut streams: BTreeMap<SeriesKey, Vec<f64>> = BTreeMap::new();
    for key in &keys {
        let values = series_values(&mut rng, points + 1);
        for (i, v) in values[..points].iter().enumerate() {
            batch.push((key.clone(), i as f64, *v));
        }
        streams.insert(key.clone(), values);
    }
    let t = Instant::now();
    eng.add_process(client_node, Box::new(Injector { memory: *memory, batch }));
    eng.run_until(eng.now() + TimeDelta::from_secs(1e7));
    let prime_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(handle.borrow().stores, (keys.len() * points) as u64);

    let latest: Latest = Rc::new(RefCell::new(BTreeMap::new()));

    // Cold sweep: first query per series pays the directory lookup and
    // the full-ring fetch.
    let cold_ms = run_storm(&mut eng, client_node, sys.forecaster, &keys, keys.len(), &latest);
    let served_cold = handle.borrow().points_served;
    assert_eq!(served_cold, (keys.len() * points) as u64, "cold sweep ships every ring");

    // Steady-state storm: no new measurements → every query is a zero-
    // point delta fetch, independent of how long the rings are.
    let steady_ms = run_storm(&mut eng, client_node, sys.forecaster, &keys, queries, &latest);
    let steady_points_served = handle.borrow().points_served - served_cold;
    assert_eq!(steady_points_served, 0, "steady-state queries must ship zero history");

    // Delta phase: one fresh point per series, then one more sweep.
    let batch: Vec<(SeriesKey, f64, f64)> =
        keys.iter().map(|k| (k.clone(), points as f64, streams[k][points])).collect();
    eng.add_process(client_node, Box::new(Injector { memory: *memory, batch }));
    eng.run_until(eng.now() + TimeDelta::from_secs(1e7));
    let before_delta = handle.borrow().points_served;
    run_storm(&mut eng, client_node, sys.forecaster, &keys, keys.len(), &latest);
    let delta_served = handle.borrow().points_served - before_delta;
    assert_eq!(delta_served, keys.len() as u64, "delta sweep ships exactly Δ = 1 per series");

    // Directory economy: exactly one lookup per series, ever.
    let lookups = sys.registry.borrow().lookups;
    assert_eq!(lookups, keys.len() as u64, "memory location must be cached after first query");

    // Replay oracle: every served forecast is bit-identical to a fresh
    // battery replay of the stored ring.
    let store = handle.borrow();
    let latest = latest.borrow();
    let mut oracle_identical = true;
    for key in &keys {
        let mut oracle = ForecasterBattery::classic();
        oracle.observe_all(store.series[key].iter().map(|p| p.value));
        let served = latest[key].clone();
        if oracle.forecast() != served {
            oracle_identical = false;
            eprintln!("MISMATCH {key}: {:?} vs {:?}", oracle.forecast(), served);
        }
    }
    assert!(oracle_identical, "incremental forecasts must be bit-identical to replay");

    StormRow {
        family: family.name(),
        hosts,
        series: keys.len(),
        points,
        queries,
        prime_ms,
        cold_ms,
        steady_ms,
        steady_us_per_query: steady_ms * 1e3 / queries as f64,
        steady_points_served,
        lookups,
        oracle_identical,
    }
}

/// Battery-level cost curves: a replay-per-query server does O(n·P) work
/// per query; the persistent battery answers from standing state.
fn run_battery_tiers(lens: &[usize]) -> Vec<BatteryRow> {
    let mut rows = Vec::new();
    for &len in lens {
        let mut rng = SmallRng::seed_from_u64(SEED ^ len as u64);
        let data = series_values(&mut rng, len);

        let replay_iters = (200_000 / len).max(3);
        let t = Instant::now();
        for _ in 0..replay_iters {
            let mut battery = ForecasterBattery::classic();
            battery.observe_all(data.iter().copied());
            std::hint::black_box(battery.forecast());
        }
        let replay_us = t.elapsed().as_secs_f64() * 1e6 / replay_iters as f64;

        let mut warm = ForecasterBattery::classic();
        warm.observe_all(data.iter().copied());
        let steady_iters = 20_000;
        let t = Instant::now();
        for _ in 0..steady_iters {
            std::hint::black_box(warm.forecast());
        }
        let steady_us = t.elapsed().as_secs_f64() * 1e6 / steady_iters as f64;

        rows.push(BatteryRow { series_len: len, replay_us, steady_us });
    }
    // Steady-state cost is a function of the predictor family, not the
    // history length: allow generous noise, reject the O(n) shape.
    let (lo, hi) = (rows.first().unwrap(), rows.last().unwrap());
    assert!(
        hi.steady_us < 20.0 * lo.steady_us.max(0.05),
        "steady-state query cost must not scale with series length: {} us @ {} vs {} us @ {}",
        lo.steady_us,
        lo.series_len,
        hi.steady_us,
        hi.series_len
    );
    assert!(
        hi.replay_us > 3.0 * lo.replay_us,
        "replay cost should grow with series length ({} us vs {} us)",
        lo.replay_us,
        hi.replay_us
    );
    rows
}

fn to_json(storm: &[StormRow], battery: &[BatteryRow], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"forecaster_scaling\",\n");
    out.push_str("  \"generated_by\": \"exp_forecast_scaling\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"storm_rows\": [\n");
    for (i, r) in storm.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"hosts\": {}, \"series\": {}, \"points\": {}, \
             \"queries\": {}, \"prime_ms\": {:.3}, \"cold_ms\": {:.3}, \"steady_ms\": {:.3}, \
             \"steady_us_per_query\": {:.3}, \"steady_points_served\": {}, \"lookups\": {}, \
             \"oracle_identical\": {}}}{}\n",
            r.family,
            r.hosts,
            r.series,
            r.points,
            r.queries,
            r.prime_ms,
            r.cold_ms,
            r.steady_ms,
            r.steady_us_per_query,
            r.steady_points_served,
            r.lookups,
            r.oracle_identical,
            if i + 1 < storm.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"battery_rows\": [\n");
    for (i, r) in battery.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"series_len\": {}, \"replay_us_per_query\": {:.3}, \
             \"steady_us_per_query\": {:.3}}}{}\n",
            r.series_len,
            r.replay_us,
            r.steady_us,
            if i + 1 < battery.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let BenchArgs { smoke, out_path, .. } = BenchArgs::parse("BENCH_forecaster.json");

    println!("=== forecaster scaling: incremental query engine vs replay ===\n");

    let tiers: Vec<(SynthFamily, usize, usize, usize)> = if smoke {
        vec![(SynthFamily::Campus, 100, 128, 1_000)]
    } else {
        vec![
            (SynthFamily::Campus, 100, 512, 1_000),
            (SynthFamily::Campus, 100, 512, 10_000),
            (SynthFamily::Campus, 100, 512, 100_000),
            (SynthFamily::FatTree, 100, 512, 10_000),
        ]
    };

    let mut storm_rows = Vec::new();
    for (family, hosts, points, queries) in tiers {
        let row = run_storm_tier(family, hosts, points, queries);
        println!(
            "  {:>9} @ {:>3} hosts, {:>3} series x {:>3} pts: {:>6} queries, \
             steady {:>7.2} us/query, {} delta pts, oracle ok",
            row.family,
            row.hosts,
            row.series,
            row.points,
            row.queries,
            row.steady_us_per_query,
            row.steady_points_served,
        );
        storm_rows.push(row);
    }

    let lens: &[usize] = if smoke { &[128, 2048] } else { &[128, 512, 2048, 8192] };
    let battery_rows = run_battery_tiers(lens);

    let mut t = Table::new(&["series len", "replay us/query", "steady us/query"]);
    for r in &battery_rows {
        t.row(vec![r.series_len.to_string(), f(r.replay_us, 2), f(r.steady_us, 3)]);
    }
    println!();
    t.print();

    std::fs::write(&out_path, to_json(&storm_rows, &battery_rows, smoke))
        .expect("write BENCH_forecaster.json");
    println!("\nwrote {out_path}");
}
