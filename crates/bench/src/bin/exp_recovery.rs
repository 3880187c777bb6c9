//! Crash-recovery benchmark for the durable state plane: a deployed NWS
//! takes scheduled host/power-level memory crashes (process killed AND
//! the simulated disk's unsynced page cache torn) under 5 % message
//! loss, heals under heartbeat supervision by replaying snapshot + WAL
//! from the host's disk alone, and the recovery is scored. Emitted as
//! `BENCH_recovery.json`.
//!
//! Per tier (0 / 1 / 3 / 6 host crashes over the same 300 s window):
//!
//! * **recovery latency** is the median time from a crash to the first
//!   measurement stored by the rebuilt server;
//! * **replay bytes** are the disk reads recovery performed (snapshot +
//!   WAL images), alongside appended/synced/torn byte counters from the
//!   same [`netsim::disk::DiskStats`];
//! * **availability** is the mean over series of measured coverage —
//!   time not spent in gaps beyond 4× the series' own cadence;
//! * **double_counted** is `stores − Σ len(series) − rejected`: a retry
//!   replayed from the WAL *and* re-acked live would show up here.
//!
//! Hard gates, asserted before the JSON is written: every tier is
//! bit-for-bit deterministic (run twice, compared), every crash heals,
//! nothing is double counted, every pre-crash witness snapshot is a
//! byte-identical prefix of the final record, crashing tiers actually
//! replay bytes from disk, and availability stays ≥ 0.98.
//!
//! Run: `cargo run --release -p nws-bench --bin exp_recovery
//! [--smoke] [out.json]`. `--smoke` keeps the 0- and 3-crash tiers (CI).

use netsim::faults::LossModel;
use netsim::scenarios::star_hub;
use netsim::time::{SimTime, TimeDelta};
use netsim::units::Bandwidth;
use netsim::Engine;
use nws::supervisor::SupervisorConfig;
use nws::{NwsMsg, NwsSystem, NwsSystemSpec, SeriesKey};
use nws_bench::{availability, f, BenchArgs, Table, GAP_FACTOR};

const SEED: u64 = 2027;
const HOSTS: usize = 6;
const WARMUP_S: f64 = 60.0;
const WINDOW_S: f64 = 300.0;
const COOLDOWN_S: f64 = 60.0;
const LOSS_PCT: f64 = 5.0;

struct Row {
    crashes: usize,
    healed: usize,
    stores: u64,
    dup_stores: u64,
    rejected: u64,
    availability: f64,
    median_recovery_s: f64,
    replay_bytes: u64,
    appended_bytes: u64,
    synced_bytes: u64,
    torn_bytes: u64,
    compactions: u64,
    double_counted: i64,
    prefix_intact: bool,
    deterministic: bool,
}

/// Full dump of every stored series, keyed and in point order.
type SeriesDump = Vec<(SeriesKey, Vec<(f64, f64)>)>;

/// Everything one run observes, for the bit-for-bit determinism gate.
type Observation = (u64, u64, u64, SeriesDump);

struct RunOutcome {
    obs: Observation,
    dup_stores: u64,
    rejected: u64,
    crash_times: Vec<f64>,
    healed: usize,
    replay_bytes: u64,
    appended_bytes: u64,
    synced_bytes: u64,
    torn_bytes: u64,
    compactions: u64,
    double_counted: i64,
    prefix_intact: bool,
}

fn run_tier_once(crashes: usize) -> RunOutcome {
    let net = star_hub(HOSTS, Bandwidth::mbps(100.0));
    let names: Vec<String> =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut eng: Engine<NwsMsg> = Engine::new(net.topo);
    let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
    spec.seed = SEED;
    // A small compaction threshold so the window crosses it several
    // times: recovery replays a snapshot *plus* a WAL suffix, not one
    // giant log.
    spec.wal_compact_kib = 16;
    // A host-level heal restarts the co-located sensor too, killing the
    // clique token; an aggressive watchdog regenerates it quickly, so
    // recovery latency measures the state plane, not the token timeout.
    spec.watchdog = TimeDelta::from_secs(8.0);
    let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    sys.attach_supervisor(
        &mut eng,
        SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 },
    );
    eng.set_fault_seed(SEED.wrapping_add(crashes as u64));
    eng.set_default_loss(Some(LossModel::lossy(LOSS_PCT / 100.0)));

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

    // Crashes evenly spaced through the window, each preceded by a
    // witness snapshot of the whole stored record.
    let mem_host = names[0].clone();
    let mut witnesses: Vec<SeriesDump> = Vec::new();
    let mut crash_times: Vec<f64> = Vec::new();
    for i in 0..crashes {
        let t = WARMUP_S + WINDOW_S * (i as f64 + 1.0) / (crashes as f64 + 1.0);
        healed_total += supervised_until(&mut eng, &mut sys, SimTime::from_secs(t));
        witnesses.push(
            sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect(),
        );
        crash_times.push(eng.now().as_secs());
        sys.crash_memory(&mut eng, &mem_host);
    }
    healed_total += supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + WINDOW_S));
    eng.set_default_loss(None);
    healed_total +=
        supervised_until(&mut eng, &mut sys, SimTime::from_secs(WARMUP_S + WINDOW_S + COOLDOWN_S));

    // Score.
    let stats = eng.stats();
    let series: SeriesDump =
        sys.series_keys().into_iter().map(|k| (k.clone(), sys.series(&k).unwrap())).collect();
    let prefix_intact = witnesses.iter().flatten().all(|(k, before)| {
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
    let dstats = sys.disks.total_stats();
    RunOutcome {
        obs: (sys.total_stores(), stats.messages_dropped, stats.messages_duplicated, series),
        dup_stores,
        rejected,
        crash_times,
        healed: healed_total,
        replay_bytes: dstats.bytes_read,
        appended_bytes: dstats.bytes_appended,
        synced_bytes: dstats.bytes_synced,
        torn_bytes: dstats.bytes_torn,
        compactions: dstats.renames,
        double_counted,
        prefix_intact,
    }
}

/// Median seconds from a memory crash to the first measurement the
/// rebuilt server stored (first point anywhere with `t >` the crash).
fn median_recovery(crash_times: &[f64], series: &[(SeriesKey, Vec<(f64, f64)>)]) -> f64 {
    let mut recoveries: Vec<f64> = crash_times
        .iter()
        .filter_map(|tc| {
            series
                .iter()
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

fn run_tier(crashes: usize) -> Row {
    let a = run_tier_once(crashes);
    let b = run_tier_once(crashes);
    let deterministic = a.obs == b.obs
        && a.crash_times == b.crash_times
        && a.healed == b.healed
        && a.replay_bytes == b.replay_bytes
        && a.torn_bytes == b.torn_bytes;
    let (stores, _, _, series) = &a.obs;
    Row {
        crashes,
        healed: a.healed,
        stores: *stores,
        dup_stores: a.dup_stores,
        rejected: a.rejected,
        availability: availability(series),
        median_recovery_s: median_recovery(&a.crash_times, series),
        replay_bytes: a.replay_bytes,
        appended_bytes: a.appended_bytes,
        synced_bytes: a.synced_bytes,
        torn_bytes: a.torn_bytes,
        compactions: a.compactions,
        double_counted: a.double_counted,
        prefix_intact: a.prefix_intact,
        deterministic,
    }
}

fn to_json(rows: &[Row], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"recovery\",\n");
    out.push_str("  \"generated_by\": \"exp_recovery\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"hosts\": {HOSTS},\n"));
    out.push_str(&format!("  \"loss_pct\": {LOSS_PCT},\n"));
    out.push_str(&format!(
        "  \"schedule\": {{\"warmup_s\": {WARMUP_S}, \"window_s\": {WINDOW_S}, \
         \"cooldown_s\": {COOLDOWN_S}, \"gap_factor\": {GAP_FACTOR}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"crashes\": {}, \"healed\": {}, \"stores\": {}, \"dup_stores\": {}, \
             \"rejected\": {}, \"availability\": {:.6}, \"median_recovery_s\": {:.3}, \
             \"replay_bytes\": {}, \"appended_bytes\": {}, \"synced_bytes\": {}, \
             \"torn_bytes\": {}, \"compactions\": {}, \"double_counted\": {}, \
             \"prefix_intact\": {}, \"deterministic\": {}}}{}\n",
            r.crashes,
            r.healed,
            r.stores,
            r.dup_stores,
            r.rejected,
            r.availability,
            r.median_recovery_s,
            r.replay_bytes,
            r.appended_bytes,
            r.synced_bytes,
            r.torn_bytes,
            r.compactions,
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
    let BenchArgs { smoke, out_path, .. } = BenchArgs::parse("BENCH_recovery.json");
    let tiers: &[usize] = if smoke { &[0, 3] } else { &[0, 1, 3, 6] };

    println!("=== durable state plane: memory host crashes x disk recovery ===\n");
    let mut rows = Vec::new();
    for &crashes in tiers {
        let r = run_tier(crashes);
        println!(
            "  {} crashes: {} stores ({} dup-suppressed, {} rejected), healed {}, \
             availability {:.4}, recovery {:.1} s, replay {} B, torn {} B, {} compactions",
            r.crashes,
            r.stores,
            r.dup_stores,
            r.rejected,
            r.healed,
            r.availability,
            r.median_recovery_s,
            r.replay_bytes,
            r.torn_bytes,
            r.compactions
        );
        rows.push(r);
    }

    let mut t = Table::new(&[
        "crashes",
        "stores",
        "dup stores",
        "healed",
        "avail",
        "recovery s",
        "replay B",
        "torn B",
        "compactions",
        "dbl-count",
    ]);
    for r in &rows {
        t.row(vec![
            r.crashes.to_string(),
            r.stores.to_string(),
            r.dup_stores.to_string(),
            r.healed.to_string(),
            f(r.availability, 4),
            f(r.median_recovery_s, 1),
            r.replay_bytes.to_string(),
            r.torn_bytes.to_string(),
            r.compactions.to_string(),
            r.double_counted.to_string(),
        ]);
    }
    println!();
    t.print();

    // Hard gates — a regression in the durable state plane fails the bench.
    for r in &rows {
        assert!(r.deterministic, "{} crashes: two identical runs diverged", r.crashes);
        assert_eq!(
            r.double_counted, 0,
            "{} crashes: a replayed or retried store was counted twice",
            r.crashes
        );
        assert!(r.prefix_intact, "{} crashes: recovery rewrote stored history", r.crashes);
        assert!(r.healed >= r.crashes, "{} crashes: not every crash healed", r.crashes);
        if r.crashes > 0 {
            assert!(r.replay_bytes > 0, "{} crashes: recovery never read the disk", r.crashes);
        }
        assert!(
            r.availability >= 0.98,
            "{} crashes: availability {:.4} < 0.98",
            r.crashes,
            r.availability
        );
    }

    std::fs::write(&out_path, to_json(&rows, smoke)).expect("write BENCH_recovery.json");
    println!("\nwrote {out_path}");
}
