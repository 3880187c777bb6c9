//! Fault-storm benchmark: a deployed NWS rides out seeded storms of
//! packet loss, duplication, link flaps, sensor crashes and a memory
//! crash — under heartbeat supervision — and the stored measurement
//! record is scored for availability, integrity and recovery latency.
//! Emitted as `BENCH_faults.json`.
//!
//! Per loss tier (0 / 1 / 5 / 15 % drop, each with duplication and
//! jitter riding along at the lossy tiers):
//!
//! * a [`FaultPlan::storm`] schedules lossy episodes, sensor crash /
//!   restart pairs and a link flap over the sensor hosts; restarts are
//!   *skipped* — detection and repair is the supervisor's job;
//! * halfway through, the memory server is crashed outright: sensors
//!   must buffer unacked stores and drain them (original timestamps) to
//!   the rebuilt server;
//! * **availability** is the mean over series of measured coverage —
//!   time not spent in gaps beyond 4× the series' own cadence;
//! * **double_counted** is `stores − Σ len(series) − rejected` per
//!   memory: any retry or duplicate counted twice shows up here;
//! * **recovery** is the median time from a sensor crash to that host's
//!   next stored measurement.
//!
//! Hard gates, asserted before the JSON is written: every tier is
//! bit-for-bit deterministic (each is run twice and compared), no tier
//! double-counts a single store, the pre-crash record survives the
//! memory restart byte-for-byte, and tiers at ≤ 5 % loss keep
//! availability ≥ 0.99.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_fault_storm
//! [--smoke] [out.json]`. `--smoke` keeps the 0 and 5 % tiers (CI).

use netsim::faults::{apply_link_fault, FaultEvent, FaultPlan, LossModel, StormConfig};
use netsim::scenarios::star_hub;
use netsim::time::{SimTime, TimeDelta};
use netsim::units::Bandwidth;
use netsim::Engine;
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, SeriesKey};
use nws_bench::{availability, f, BenchArgs, Table, GAP_FACTOR};

/// Fixed seed: the run is deterministic end to end.
const SEED: u64 = 2026;
const HOSTS: usize = 6;
const WARMUP_S: f64 = 60.0;
const STORM_S: f64 = 480.0;
const COOLDOWN_S: f64 = 60.0;

struct Row {
    loss_pct: f64,
    drops: u64,
    dups: u64,
    stores: u64,
    dup_stores: u64,
    rejected: u64,
    crashes: usize,
    healed: usize,
    availability: f64,
    median_recovery_s: f64,
    double_counted: i64,
    prefix_intact: bool,
    deterministic: bool,
}

/// Everything one run observes, for the bit-for-bit determinism gate.
type Observation = (u64, u64, u64, Vec<(SeriesKey, Vec<(f64, f64)>)>);

struct RunOutcome {
    obs: Observation,
    dup_stores: u64,
    rejected: u64,
    crashes: Vec<(String, f64)>,
    healed: usize,
    double_counted: i64,
    prefix_intact: bool,
}

fn run_storm(loss_pct: f64) -> RunOutcome {
    let net = star_hub(HOSTS, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.seed = SEED;
    // A supervised deployment can afford an aggressive token watchdog:
    // false regenerations are cheap (the clique dedups token seqs), slow
    // ones stall every series behind a dead token holder.
    spec.watchdog = TimeDelta::from_secs(8.0);
    let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
    );
    eng.set_fault_seed(SEED ^ loss_pct.to_bits());

    let check = TimeDelta::from_secs(1.0);
    let mut healed_total = 0usize;
    let supervised_until = |eng: &mut Engine<NwsMsg>, sys: &mut NwsSystem, t: SimTime| {
        let mut healed = 0usize;
        while eng.now() < t {
            let next = (eng.now() + check).min(t);
            eng.run_until(next);
            healed += sys.heal(eng).unwrap().len();
        }
        healed
    };

    healed_total += supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S));

    // The storm: loss episodes with duplication and jitter riding along,
    // plus two sensor crash/restart pairs. No link flaps in the *scored*
    // storm — a severed access link is unmeasurable by any protocol, so
    // it would only blur the availability metric; flap handling is
    // exercised by the netsim fault tests and the NWS determinism test.
    // The memory host is not a storm victim — it gets its own scripted
    // crash below.
    let loss = if loss_pct == 0.0 {
        LossModel::NONE
    } else {
        LossModel::degraded(loss_pct / 100.0, 0.02, TimeDelta::from_millis(5.0))
    };
    let victims: Vec<String> = names[1..].to_vec();
    let cfg = StormConfig {
        duration: STORM_S,
        loss,
        episodes: if loss.is_none() { 0 } else { 2 },
        crashes: 2,
        flaps: 0,
        outage: (STORM_S * 0.05, STORM_S * 0.15),
    };
    let plan = FaultPlan::storm(SEED.wrapping_add(loss_pct.to_bits()), &victims, &cfg);
    let mem_crash_t = WARMUP_S + STORM_S * 0.5;

    let mut crashes: Vec<(String, f64)> = Vec::new();
    let mut snapshot: Vec<(SeriesKey, Vec<(f64, f64)>)> = Vec::new();
    let mut mem_crashed = false;
    let crash_memory = |eng: &mut Engine<NwsMsg>,
                        sys: &mut NwsSystem,
                        snapshot: &mut Vec<(SeriesKey, Vec<(f64, f64)>)>| {
        *snapshot =
            sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect();
        let (pid, _) = sys.memories[&names[0]];
        eng.kill_process(pid);
    };

    for ev in &plan.events {
        let t = SimTime::from_secs(WARMUP_S + ev.t);
        if !mem_crashed && t.as_secs() > mem_crash_t {
            healed_total += supervised_until(&mut eng, &mut sys, SimTime::from_secs(mem_crash_t));
            crash_memory(&mut eng, &mut sys, &mut snapshot);
            mem_crashed = true;
        }
        healed_total += supervised_until(&mut eng, &mut sys, t);
        match &ev.event {
            FaultEvent::Crash { host } => {
                if let Some(&pid) = sys.sensors.get(host) {
                    eng.kill_process(pid);
                    crashes.push((host.clone(), eng.now().as_secs()));
                }
            }
            FaultEvent::Restart { .. } => {} // the supervisor's job
            FaultEvent::LinkDown { host } => {
                apply_link_fault(&mut eng, host, false);
            }
            FaultEvent::LinkUp { host } => {
                apply_link_fault(&mut eng, host, true);
            }
            FaultEvent::LossStart { model } => eng.set_default_loss(Some(*model)),
            FaultEvent::LossEnd => eng.set_default_loss(None),
        }
    }
    if !mem_crashed {
        healed_total += supervised_until(&mut eng, &mut sys, SimTime::from_secs(mem_crash_t));
        crash_memory(&mut eng, &mut sys, &mut snapshot);
    }
    eng.set_default_loss(None);
    healed_total +=
        supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + STORM_S + COOLDOWN_S));

    // Score the stored record.
    let stats = eng.stats();
    let series: Vec<(SeriesKey, Vec<(f64, f64)>)> =
        sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect();
    let prefix_intact = snapshot.iter().all(|(k, before)| {
        series
            .iter()
            .find(|(ak, _)| ak == k)
            .map(|(_, after)| after.len() >= before.len() && after[..before.len()] == before[..])
            .unwrap_or(false)
    });
    let (mut dup_stores, mut rejected, mut double_counted) = (0u64, 0u64, 0i64);
    for (_, handle) in sys.memories.values() {
        let st = handle.borrow();
        let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
        dup_stores += st.dup_stores;
        rejected += st.rejected;
        double_counted += st.stores as i64 - in_series as i64 - st.rejected as i64;
    }
    RunOutcome {
        obs: (sys.total_stores(), stats.messages_dropped, stats.messages_duplicated, series),
        dup_stores,
        rejected,
        crashes,
        healed: healed_total,
        double_counted,
        prefix_intact,
    }
}

/// Median seconds from a sensor crash to that host's next stored
/// measurement (over all crashes that had a next measurement).
fn median_recovery(crashes: &[(String, f64)], series: &[(SeriesKey, Vec<(f64, f64)>)]) -> f64 {
    let mut recoveries: Vec<f64> = crashes
        .iter()
        .filter_map(|(host, tc)| {
            series
                .iter()
                .filter(|(k, _)| &k.src == host)
                .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
                .filter(|t| t > tc)
                .fold(None, |acc: Option<f64>, t| Some(acc.map_or(t, |a| a.min(t))))
                .map(|t| t - tc)
        })
        .collect();
    if recoveries.is_empty() {
        return 0.0;
    }
    recoveries.sort_by(f64::total_cmp);
    recoveries[recoveries.len() / 2]
}

fn debug_gaps(series: &[(SeriesKey, Vec<(f64, f64)>)]) {
    let mut worst: Vec<(String, f64, f64, f64)> = Vec::new();
    for (k, pts) in series {
        if pts.len() < 3 {
            worst.push((format!("{k}"), f64::INFINITY, 0.0, pts.len() as f64));
            continue;
        }
        let span = pts[pts.len() - 1].0 - pts[0].0;
        let cadence = span / (pts.len() - 1) as f64;
        let allowed = GAP_FACTOR * cadence;
        let maxgap = pts.windows(2).map(|w| w[1].0 - w[0].0).fold(0.0, f64::max);
        let lost: f64 = pts.windows(2).map(|w| (w[1].0 - w[0].0 - allowed).max(0.0)).sum();
        worst.push((format!("{k}"), lost / span, maxgap, cadence));
    }
    worst.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (k, lostfrac, maxgap, cadence) in worst.iter().take(12) {
        println!("    GAP {k}: lost {lostfrac:.3}, maxgap {maxgap:.1}s, cadence {cadence:.1}s");
    }
}

fn run_tier(loss_pct: f64) -> Row {
    let a = run_storm(loss_pct);
    if std::env::var("FAULT_DEBUG").is_ok() {
        debug_gaps(&a.obs.3);
    }
    let b = run_storm(loss_pct);
    let deterministic = a.obs == b.obs
        && a.crashes == b.crashes
        && a.healed == b.healed
        && a.double_counted == b.double_counted;
    let (stores, drops, dups, series) = a.obs;
    Row {
        loss_pct,
        drops,
        dups,
        stores,
        dup_stores: a.dup_stores,
        rejected: a.rejected,
        crashes: a.crashes.len(),
        healed: a.healed,
        availability: availability(&series),
        median_recovery_s: median_recovery(&a.crashes, &series),
        double_counted: a.double_counted,
        prefix_intact: a.prefix_intact,
        deterministic,
    }
}

fn to_json(rows: &[Row], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fault_storm\",\n");
    out.push_str("  \"generated_by\": \"exp_fault_storm\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"hosts\": {HOSTS},\n"));
    out.push_str(&format!(
        "  \"schedule\": {{\"warmup_s\": {WARMUP_S}, \"storm_s\": {STORM_S}, \
         \"cooldown_s\": {COOLDOWN_S}, \"gap_factor\": {GAP_FACTOR}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"loss_pct\": {}, \"drops\": {}, \"dups\": {}, \"stores\": {}, \
             \"dup_stores\": {}, \"rejected\": {}, \"crashes\": {}, \"healed\": {}, \
             \"availability\": {:.6}, \"median_recovery_s\": {:.3}, \
             \"double_counted\": {}, \"prefix_intact\": {}, \"deterministic\": {}}}{}\n",
            r.loss_pct,
            r.drops,
            r.dups,
            r.stores,
            r.dup_stores,
            r.rejected,
            r.crashes,
            r.healed,
            r.availability,
            r.median_recovery_s,
            r.double_counted,
            r.prefix_intact,
            r.deterministic,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let BenchArgs { smoke, out_path, .. } = BenchArgs::parse("BENCH_faults.json");
    let tiers: &[f64] = if smoke { &[0.0, 5.0] } else { &[0.0, 1.0, 5.0, 15.0] };

    println!("=== fault storms: loss tiers x crashes under supervision ===\n");
    let mut rows = Vec::new();
    for &loss_pct in tiers {
        let r = run_tier(loss_pct);
        println!(
            "  loss {:>4.1}%: {} stores ({} dup-suppressed, {} rejected), {} drops, \
             {} dups, {} crashes / {} healed, availability {:.4}, recovery {:.1} s",
            r.loss_pct,
            r.stores,
            r.dup_stores,
            r.rejected,
            r.drops,
            r.dups,
            r.crashes,
            r.healed,
            r.availability,
            r.median_recovery_s
        );
        rows.push(r);
    }

    let mut t = Table::new(&[
        "loss %",
        "stores",
        "dup stores",
        "drops",
        "dups",
        "crashes",
        "healed",
        "avail",
        "recovery s",
        "dbl-count",
    ]);
    for r in &rows {
        t.row(vec![
            f(r.loss_pct, 1),
            r.stores.to_string(),
            r.dup_stores.to_string(),
            r.drops.to_string(),
            r.dups.to_string(),
            r.crashes.to_string(),
            r.healed.to_string(),
            f(r.availability, 4),
            f(r.median_recovery_s, 1),
            r.double_counted.to_string(),
        ]);
    }
    println!();
    t.print();

    // Hard gates — a regression in the reliability layer fails the bench.
    for r in &rows {
        assert!(r.deterministic, "loss {}%: two identical runs diverged", r.loss_pct);
        assert_eq!(
            r.double_counted, 0,
            "loss {}%: a retried or duplicated store was counted twice",
            r.loss_pct
        );
        assert!(r.prefix_intact, "loss {}%: memory restart rewrote stored history", r.loss_pct);
        assert!(r.healed > 0, "loss {}%: the supervisor never healed anything", r.loss_pct);
        if r.loss_pct <= 5.0 {
            assert!(
                r.availability >= 0.99,
                "loss {}%: availability {:.4} < 0.99",
                r.loss_pct,
                r.availability
            );
        }
    }

    std::fs::write(&out_path, to_json(&rows, smoke)).expect("write BENCH_faults.json");
    println!("\nwrote {out_path}");
}
