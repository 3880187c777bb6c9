//! The paper's loop, driven from outside through each layer's public API:
//! synth a platform, map it with ENV, plan and validate an NWS
//! deployment, deploy it, sense under faults and supervision, serve
//! forecasts, then churn the platform and repair the deployment in place.
//!
//! Every workload runs the whole loop, so every metric exists on every
//! workload; a [`Profile`] decides where the work goes. The amount of
//! work is fixed by `--seconds` (calibrated so a run measures about that
//! long on a 2-core box), never by a wall-clock deadline, so the
//! simulated schedule — and with it every output and the fingerprint —
//! is a function of the seed and `--seconds` alone.

use envdeploy::{
    apply_plan, apply_plan_delta, plan_deployment, repair_plan, validate_plan_with_routes,
    DeploymentPlan, Estimator, Freshness, PlannerConfig, RepairConfig,
};
use envmap::score::intact_fraction;
use envmap::{cluster_agreement, EnvConfig, EnvMapper, EnvRun, HostInput};
use netsim::churn::{apply_churn, ChurnState};
use netsim::disk::fnv1a64;
use netsim::faults::{FaultEvent, FaultPlan, LossModel, StormConfig};
use netsim::synth::{synth, SynthFamily, SynthScenario};
use netsim::time::{SimTime, TimeDelta};
use netsim::{Engine, ProcessId};
use nws::{ForecasterBattery, NwsMsg, NwsSystem, SeriesKey, ServingPlane, SupervisorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::trace::Tracer;

/// Mapper worker threads, publish workers and closed-loop serving
/// clients: one process, at most `nproc` = 2 threads of load.
const THREADS: usize = 2;
const BATCH_KEYS: usize = 16;
/// Keys served by one plane wave: every client sends one batch.
pub const WAVE_KEYS: usize = THREADS * BATCH_KEYS;
const INSIM_KEYS: usize = 64;
const INSIM_PATIENCE_S: f64 = 2.0;
/// Zipf exponent of the key popularity: the forecaster's per-series
/// battery cache holds the hot head, the tail pays cold lookups.
const ZIPF_S: f64 = 1.1;
/// Supervisor sweep period and heartbeat miss threshold.
const HEAL_EVERY_S: f64 = 1.0;
const MISS_THRESHOLD: u32 = 3;
/// Resolution of the recovery-time measurement, simulated seconds.
const RECOVERY_RES_S: f64 = 0.01;
/// Serving-plane shards per deployment, published by `THREADS` workers.
const SERVE_SHARDS: usize = 4;
/// A gap is an outage once it exceeds this multiple of the series' own
/// mean cadence (the `exp_recovery` availability definition).
const GAP_FACTOR: f64 = 4.0;
/// Mapper and churn scores must reach this against the ground truth.
const MIN_AGREEMENT: f64 = 0.95;
/// Keys checked against a fresh-battery replay at the end of serving.
const CHECK_KEYS: usize = 48;

/// Where one workload puts its work.
#[derive(Debug, Clone)]
pub struct Profile {
    pub families: &'static [SynthFamily],
    pub hosts: usize,
    /// Independent sites run back to back, each on its own derived seed.
    pub passes: usize,
    /// Whether map/plan/validate/deploy and warm-up sensing count as
    /// set-up (they prepare the workload's real subject) or not.
    pub deploy_in_setup: bool,
    pub warm_s: f64,
    /// Supervised sensing under the fault plan.
    pub monitor_s: f64,
    pub loss_episodes: usize,
    pub sensor_crashes: usize,
    pub memory_crashes: usize,
    pub wal_compact_kib: u64,
    pub rounds: usize,
    /// Sensing before each serving round and after each churn epoch.
    pub sense_step_s: f64,
    pub waves: usize,
    pub estimates: usize,
    pub churn_epochs: usize,
    pub churn_events: usize,
}

pub const WORKLOADS: [&str; 3] = ["deploy_churn", "monitor_faults", "query_mix"];

impl Profile {
    /// The named workload, sized for a run of about `seconds` seconds.
    pub fn of(workload: &str, seconds: u64) -> Option<Profile> {
        let s = seconds.max(1) as f64;
        let scaled = |per_second: f64| ((per_second * s).round() as usize).max(1);
        match workload {
            "deploy_churn" => Some(Profile {
                families: &SynthFamily::ALL,
                hosts: 2000,
                passes: scaled(0.08),
                deploy_in_setup: false,
                warm_s: 3.0,
                monitor_s: 12.0,
                loss_episodes: 1,
                sensor_crashes: 1,
                memory_crashes: 1,
                wal_compact_kib: 64,
                rounds: 8,
                sense_step_s: 1.0,
                waves: 160,
                estimates: 100,
                churn_epochs: 3,
                churn_events: 4,
            }),
            "monitor_faults" => Some(Profile {
                families: &[SynthFamily::Campus],
                hosts: 100,
                passes: scaled(0.8),
                deploy_in_setup: true,
                warm_s: 30.0,
                monitor_s: 300.0,
                loss_episodes: 3,
                sensor_crashes: 4,
                memory_crashes: 6,
                wal_compact_kib: 16,
                rounds: 5,
                sense_step_s: 2.0,
                waves: 250,
                estimates: 150,
                churn_epochs: 6,
                churn_events: 1,
            }),
            "query_mix" => Some(Profile {
                families: &[SynthFamily::Campus],
                hosts: 150,
                passes: scaled(0.8),
                deploy_in_setup: true,
                warm_s: 60.0,
                monitor_s: 40.0,
                loss_episodes: 0,
                sensor_crashes: 0,
                memory_crashes: 2,
                wal_compact_kib: 64,
                rounds: 30,
                sense_step_s: 2.0,
                waves: 60,
                estimates: 40,
                churn_epochs: 6,
                churn_events: 1,
            }),
            _ => None,
        }
    }
}

/// Everything a run measures and counts; turned into metrics by the caller.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per pass: set-up, deploy, repair wall seconds and modelled mapping
    /// makespan (simulated seconds).
    pub setup_s: Vec<f64>,
    pub deploy_s: Vec<f64>,
    pub repair_s: Vec<f64>,
    pub map_sim_s: Vec<f64>,
    /// Simulated seconds per wall second of supervised sensing, per site.
    pub sim_rate: Vec<f64>,
    /// Measured coverage of every series of every site.
    pub coverage: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub wave_us: Vec<f64>,
    pub estimate_us: Vec<f64>,
    pub insim_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    /// Per-layer counters, by metric name.
    pub counts: std::collections::BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn fold(&mut self, bytes: &[u8]) {
        let mut buf = self.fingerprint.to_le_bytes().to_vec();
        buf.extend_from_slice(bytes);
        self.fingerprint = fnv1a64(&buf);
    }
}

/// Run every pass of the workload. A failed check is an `Err`.
pub fn run(p: &Profile, seed: u64, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for pass in 0..p.passes {
        let mut setup = 0.0;
        let mut deploy = 0.0;
        let mut repair = 0.0;
        let mut map_sim = 0.0;
        for (fi, &family) in p.families.iter().enumerate() {
            tr.set_round((pass as u64) << 32);
            let site_seed = derive(seed, (pass * p.families.len() + fi) as u64);
            let mut site = Site::new(p, family, site_seed, tr, &mut out);
            site.deploy()?;
            site.supervise(site.eng.now() + TimeDelta::from_secs(p.warm_s))?;
            if p.deploy_in_setup {
                site.setup_s += site.deploy_s + site.sense_wall_s;
            }
            site.monitor()?;
            site.serve(pass)?;
            site.churn()?;
            site.finish()?;
            site.out.sim_rate.push(site.sense_sim_s / site.sense_wall_s);
            setup += site.setup_s;
            deploy += site.deploy_s;
            repair += site.repair_s;
            map_sim += site.map_sim_s;
        }
        out.setup_s.push(setup);
        out.deploy_s.push(deploy);
        out.repair_s.push(repair);
        out.map_sim_s.push(map_sim);
    }
    Ok(out)
}

/// SplitMix64 step: independent per-site seeds from the run seed.
fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn inputs(names: &[String]) -> Vec<HostInput> {
    names.iter().map(|n| HostInput::new(n)).collect()
}

type SeriesDump = Vec<(SeriesKey, Vec<(f64, f64)>)>;

fn dump(sys: &NwsSystem) -> SeriesDump {
    sys.series_keys()
        .into_iter()
        .map(|k| {
            let pts = sys.series(&k).unwrap_or_default();
            (k, pts)
        })
        .collect()
}

/// `before` is a bit-identical prefix of `after`. (Rings never evict in
/// a run: `Site::finish` fails on a full ring.)
fn is_prefix(before: &[(f64, f64)], after: &[(f64, f64)]) -> bool {
    after.len() >= before.len() && after[..before.len()] == *before
}

/// Fraction of a series' span not spent in gaps beyond `GAP_FACTOR ×` its
/// own mean cadence; `None` for series too short to have a cadence.
fn coverage(pts: &[(f64, f64)]) -> Option<f64> {
    if pts.len() < 3 {
        return None;
    }
    let span = pts[pts.len() - 1].0 - pts[0].0;
    if span <= 0.0 {
        return None;
    }
    let allowed = GAP_FACTOR * span / (pts.len() - 1) as f64;
    let lost: f64 = pts.windows(2).map(|w| (w[1].0 - w[0].0 - allowed).max(0.0)).sum();
    Some(1.0 - lost / span)
}

/// Zipf-skewed key draws over a seeded permutation of the key set.
struct KeyDraw {
    keys: Vec<SeriesKey>,
    cdf: Vec<f64>,
}

impl KeyDraw {
    fn new(mut keys: Vec<SeriesKey>, rng: &mut SmallRng) -> KeyDraw {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..keys.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        KeyDraw { keys, cdf }
    }

    fn draw(&self, rng: &mut SmallRng, n: usize) -> Vec<SeriesKey> {
        (0..n)
            .map(|_| {
                let u = rng.next_f64();
                let i = self.cdf.partition_point(|c| *c <= u).min(self.keys.len() - 1);
                self.keys[i].clone()
            })
            .collect()
    }
}

/// One deployed platform moving through the loop.
struct Site<'a> {
    p: &'a Profile,
    tr: &'a Tracer,
    out: &'a mut Outcome,
    seed: u64,
    rng: SmallRng,
    sc: SynthScenario,
    st: ChurnState,
    eng: Engine<NwsMsg>,
    mapper: EnvMapper,
    run: Option<EnvRun>,
    plan: Option<DeploymentPlan>,
    sys: Option<NwsSystem>,
    setup_s: f64,
    deploy_s: f64,
    repair_s: f64,
    map_sim_s: f64,
    sense_wall_s: f64,
    sense_sim_s: f64,
    /// Crashed memory hosts whose rebuilt server has not stored yet.
    awaiting: Vec<Recovery>,
}

/// A memory host crash waiting for its first store after the restart.
struct Recovery {
    host: String,
    crashed_at: f64,
    crashed_pid: ProcessId,
    /// The rebuilt server's store count right after its restart.
    base: Option<u64>,
}

impl<'a> Site<'a> {
    fn new(
        p: &'a Profile,
        family: SynthFamily,
        seed: u64,
        tr: &'a Tracer,
        out: &'a mut Outcome,
    ) -> Site<'a> {
        let ((sc, topo), synth_s) = tr.span("synth", || {
            let sc = synth(family, seed, p.hosts);
            let topo = sc.net.topo.clone();
            (sc, topo)
        });
        let (eng, route_s) = tr.span("routing.build", || Engine::<NwsMsg>::new(topo));
        let st = ChurnState::new(&sc, seed ^ 0xc4a2);
        Site {
            p,
            tr,
            out,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed),
            sc,
            st,
            eng,
            mapper: EnvMapper::new(EnvConfig::fast_batched()),
            run: None,
            plan: None,
            sys: None,
            setup_s: synth_s + route_s,
            deploy_s: 0.0,
            repair_s: 0.0,
            map_sim_s: 0.0,
            sense_wall_s: 0.0,
            sense_sim_s: 0.0,
            awaiting: Vec::new(),
        }
    }

    fn family(&self) -> &'static str {
        self.sc.family.name()
    }

    /// Map → plan → validate → deploy, with the supervisor attached.
    fn deploy(&mut self) -> Result<(), String> {
        let (tr, eng) = (self.tr, &self.eng);
        let master = self.st.master.clone();
        let external = self.st.external.clone();
        let hosts = inputs(self.st.hosts());
        let (run, map_s) = tr.span("mapper.map", || {
            self.mapper.map_parallel(eng, &hosts, &master, external.as_deref(), THREADS)
        });
        let run = run.map_err(|e| format!("{}: map failed: {e}", self.family()))?;
        self.score_view(&run, "initial map")?;
        let (mut plan, plan_s) =
            tr.span("planner", || plan_deployment(&run.view, &PlannerConfig::default()));
        plan.wal_compact_kib = self.p.wal_compact_kib;
        plan.serve_shards = SERVE_SHARDS;
        let validate_s = self.validate(&plan, &run, "initial plan")?;
        let (sys, apply_s) = tr.span("manager.apply", || apply_plan(&mut self.eng, &plan));
        let mut sys = sys.map_err(|e| format!("{}: deploy failed: {e}", self.family()))?;
        sys.attach_supervisor(
            &mut self.eng,
            SupervisorConfig {
                period: TimeDelta::from_secs(HEAL_EVERY_S),
                miss_threshold: MISS_THRESHOLD,
            },
        );
        self.eng.set_fault_seed(self.seed ^ 0xfa17);
        self.out.attempted += 1;
        self.out.count("mapper.experiments", run.stats.total_experiments() as f64);
        self.out.count("mapper.maps", 1.0);
        self.out.count("planner.cliques", plan.cliques.len() as f64);
        self.map_sim_s += run.stats.mapping_seconds;
        self.deploy_s = map_s + plan_s + validate_s + apply_s;
        self.out.fold(run.view.render().as_bytes());
        self.out.fold(plan.render().as_bytes());
        self.run = Some(run);
        self.plan = Some(plan);
        self.sys = Some(sys);
        Ok(())
    }

    fn score_view(&self, run: &EnvRun, what: &str) -> Result<(), String> {
        let truth = self.st.truth_labels();
        let master = [self.st.master.as_str()];
        let agreement = cluster_agreement(&run.view, &truth, &master);
        let intact = intact_fraction(&run.view, &truth, &master);
        check(agreement >= MIN_AGREEMENT && intact >= MIN_AGREEMENT, || {
            format!(
                "{} {what}: agreement {agreement:.4} / intact {intact:.4} < {MIN_AGREEMENT}",
                self.family()
            )
        })
    }

    fn validate(&mut self, plan: &DeploymentPlan, run: &EnvRun, what: &str) -> Result<f64, String> {
        let eng = &self.eng;
        let (report, secs) = self.tr.span("validate", || {
            validate_plan_with_routes(plan, &run.view, eng.topo(), eng.routes())
        });
        self.out.count("validate.intrusiveness", report.intrusiveness());
        self.out.count("validate.calls", 1.0);
        check(report.complete && report.unresolved_hosts.is_empty(), || {
            format!("{} {what}: plan incomplete\n{}", self.family(), report.render())
        })?;
        Ok(secs)
    }

    /// Sense under supervision until `until`, sweeping the supervisor's
    /// suspects at every whole simulated second. While a rebuilt memory
    /// server has yet to store, the loop advances in fine slices to time
    /// that first store; the sweeps stay on their grid either way, so the
    /// slicing changes no behaviour.
    fn supervise(&mut self, until: SimTime) -> Result<(), String> {
        let start = self.eng.now();
        let mut wall = 0.0;
        while self.eng.now() < until {
            let grid = ((self.eng.now().as_secs() / HEAL_EVERY_S).floor() + 1.0) * HEAL_EVERY_S;
            let stop = SimTime::from_secs(grid).min(until);
            while self.eng.now() < stop {
                let fine = self.awaiting.iter().any(|r| r.base.is_some());
                let next = if fine {
                    (self.eng.now() + TimeDelta::from_secs(RECOVERY_RES_S)).min(stop)
                } else {
                    stop
                };
                let eng = &mut self.eng;
                let ((), run_s) = self.tr.span("engine.run", || eng.run_until(next));
                wall += run_s;
                self.note_first_stores();
            }
            if stop.as_secs() < grid {
                break;
            }
            let eng = &mut self.eng;
            let sys = self.sys.as_mut().expect("deployed");
            let (healed, heal_s) = self.tr.span("nws.heal", || sys.heal(eng));
            let healed = healed.map_err(|e| format!("heal failed: {e}"))?;
            wall += heal_s;
            self.out.attempted += 1;
            self.out.count("nws.heals", healed.len() as f64);
            for r in self.awaiting.iter_mut().filter(|r| r.base.is_none()) {
                let (pid, store) = &sys.memories[&r.host];
                if *pid != r.crashed_pid {
                    r.base = Some(store.borrow().stores);
                }
            }
        }
        self.sense_wall_s += wall;
        self.sense_sim_s += self.eng.now().since(start).as_secs();
        Ok(())
    }

    /// Record the recovery time of every rebuilt memory server that has
    /// stored since its restart.
    fn note_first_stores(&mut self) {
        let now = self.eng.now().as_secs();
        let sys = self.sys.as_ref().expect("deployed");
        let out = &mut *self.out;
        self.awaiting.retain(|r| {
            let stored = r.base.is_some_and(|b| sys.memories[&r.host].1.borrow().stores > b);
            if stored {
                out.recovery_s.push(now - r.crashed_at);
            }
            !stored
        });
    }

    /// The fault window: storm loss episodes, sensor crashes left to the
    /// supervisor, and evenly spaced memory host crashes, each preceded
    /// by a witness dump of the whole stored record.
    fn monitor(&mut self) -> Result<(), String> {
        let p = self.p;
        let t0 = self.eng.now().as_secs();
        let spec = self.sys.as_ref().expect("deployed").spec().clone();
        let servers = [&spec.nameserver_host, &spec.forecaster_host];
        let victims: Vec<String> = spec
            .sensors
            .iter()
            .map(|s| s.host.clone())
            .filter(|h| !spec.memory_hosts.contains(h) && !servers.contains(&h))
            .collect();
        let storm = StormConfig {
            duration: p.monitor_s,
            loss: LossModel::degraded(0.05, 0.02, TimeDelta::from_millis(5.0)),
            episodes: p.loss_episodes,
            crashes: p.sensor_crashes,
            flaps: 0,
            outage: (p.monitor_s * 0.05, p.monitor_s * 0.15),
        };
        let mut events: Vec<(f64, Option<FaultEvent>)> =
            FaultPlan::storm(self.seed, &victims, &storm)
                .events
                .into_iter()
                .map(|e| (t0 + e.t, Some(e.event)))
                .collect();
        // Memory crashes are spread evenly over the window. Their phases
        // against the one-second supervisor grid are stratified from one
        // seeded offset, so the recovery times sample the whole grid
        // period and their median moves little from seed to seed.
        let n = p.memory_crashes;
        let offset = self.rng.next_f64();
        for k in 0..n {
            let at = (p.monitor_s * (k + 1) as f64 / (n + 1) as f64).floor();
            events.push((t0 + at + (k as f64 + offset) / n as f64, None));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut witnesses: Vec<SeriesDump> = Vec::new();
        for (t, ev) in events {
            self.supervise(SimTime::from_secs(t))?;
            let eng = &mut self.eng;
            let sys = self.sys.as_mut().expect("deployed");
            match ev {
                None => {
                    let host = spec.memory_hosts[witnesses.len() % spec.memory_hosts.len()].clone();
                    witnesses.push(dump(sys));
                    let crashed_pid = sys.memories[&host].0;
                    let crashed_at = eng.now().as_secs();
                    sys.crash_memory(eng, &host);
                    self.awaiting.push(Recovery { host, crashed_at, crashed_pid, base: None });
                }
                Some(FaultEvent::Crash { host }) => {
                    if let Some(&pid) = sys.sensors.get(&host) {
                        eng.kill_process(pid);
                    }
                }
                Some(FaultEvent::LossStart { model }) => eng.set_default_loss(Some(model)),
                Some(FaultEvent::LossEnd) => eng.set_default_loss(None),
                // Restarts are the supervisor's job; no flaps are scheduled.
                Some(_) => {}
            }
        }
        self.supervise(SimTime::from_secs(t0 + p.monitor_s))?;
        self.eng.set_default_loss(None);

        // Score: every crash healed (the rebuilt server stored again), and
        // recovery never rewrote stored history.
        if let Some(r) = self.awaiting.first() {
            return Err(format!(
                "{}: memory {} crashed at {} never stored again",
                self.family(),
                r.host,
                r.crashed_at
            ));
        }
        self.out.attempted += p.memory_crashes as u64;
        // Directory entries still naming a dead memory: a restarted memory
        // re-registers its series once, unacknowledged, so a registration
        // the fault plane drops leaves that series unreachable to queries.
        let sys = self.sys.as_ref().expect("deployed");
        let registry = sys.registry.borrow();
        let mut stale = 0usize;
        for (pid, store) in sys.memories.values() {
            let store = store.borrow();
            stale += store.series.keys().filter(|k| registry.series.get(*k) != Some(pid)).count();
        }
        self.out.count("nws.stale_registrations", stale as f64);
        let after = dump(self.sys.as_ref().expect("deployed"));
        for w in &witnesses {
            for (key, before) in w {
                let now = after.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_slice());
                check(now.is_some_and(|now| is_prefix(before, now)), || {
                    format!("{}: recovery rewrote the stored history of {key}", self.family())
                })?;
            }
        }
        let bits: Vec<u8> =
            self.out.recovery_s.iter().flat_map(|r| r.to_bits().to_le_bytes()).collect();
        self.out.fold(&bits);
        Ok(())
    }

    /// Serving rounds: sense, publish one plane epoch, closed-loop plane
    /// waves, estimates over the live system, one in-sim batch.
    fn serve(&mut self, pass: usize) -> Result<(), String> {
        let p = self.p;
        let tr = self.tr;
        let sys = self.sys.as_ref().expect("deployed");
        let mut plane = sys.serving_plane();
        let draw = KeyDraw::new(sys.series_keys(), &mut self.rng);
        check(!draw.keys.is_empty(), || format!("{}: nothing was measured", self.family()))?;
        let hosts = self.plan.as_ref().expect("planned").hosts.clone();
        for round in 0..p.rounds {
            tr.set_round(((pass as u64) << 32) | (round as u64 + 1));
            let until = self.eng.now() + TimeDelta::from_secs(p.sense_step_s);
            self.supervise(until)?;
            let publish_s = self.publish(&mut plane);
            self.out.publish_ms.push(publish_s * 1e3);

            let mut last = Vec::new();
            for _ in 0..p.waves {
                let batches: Vec<Vec<SeriesKey>> =
                    (0..THREADS).map(|_| draw.draw(&mut self.rng, BATCH_KEYS)).collect();
                let (answers, secs) =
                    tr.span("serve.wave", || plane.serve_batches(&batches, THREADS));
                self.out.wave_us.push(secs * 1e6);
                self.out.attempted += WAVE_KEYS as u64;
                let missing = answers.iter().flatten().filter(|(_, f)| f.is_none()).count();
                self.out.failed += missing as u64;
                last = answers;
            }
            self.out.fold(format!("{last:?}").as_bytes());

            let run = self.run.as_ref().expect("mapped");
            let plan = self.plan.as_ref().expect("planned");
            let sys = self.sys.as_ref().expect("deployed");
            let est = Estimator::new(&run.view, plan);
            let mut estimates = Vec::with_capacity(p.estimates);
            for _ in 0..p.estimates {
                let i = self.rng.gen_range(0..hosts.len());
                let j = (i + self.rng.gen_range(1..hosts.len())) % hosts.len();
                let (a, b) = (&hosts[i], &hosts[j]);
                let (e, secs) = tr.span("aggregate.estimate", || est.estimate(a, b, sys));
                self.out.estimate_us.push(secs * 1e6);
                self.out.attempted += 1;
                match &e {
                    None => self.out.failed += 1,
                    Some(e) if e.freshness == Freshness::PartiallyStatic => {
                        self.out.count("aggregate.static", 1.0)
                    }
                    Some(_) => {}
                }
                estimates
                    .push(e.map(|e| (e.bandwidth_mbps.to_bits(), e.latency_ms.map(f64::to_bits))));
            }
            self.out.fold(format!("{estimates:?}").as_bytes());

            let keys = draw.draw(&mut self.rng, INSIM_KEYS);
            let eng = &mut self.eng;
            let patience = TimeDelta::from_secs(INSIM_PATIENCE_S);
            let (answers, secs) =
                tr.span("nws.query_batch", || sys.query_batch(eng, keys, patience));
            self.out.insim_ms.push(secs * 1e3);
            self.out.attempted += INSIM_KEYS as u64;
            self.out.failed +=
                (INSIM_KEYS - answers.iter().filter(|(_, f)| f.is_some()).count()) as u64;
            let stale = answers.iter().filter(|(_, f)| f.as_ref().is_some_and(|f| f.stale)).count();
            self.out.count("nws.insim_stale", stale as f64);
            self.out.fold(format!("{answers:?}").as_bytes());
        }

        // The plane must answer exactly what a fresh battery replayed over
        // the stored series forecasts.
        self.publish(&mut plane);
        let sys = self.sys.as_ref().expect("deployed");
        let sample = draw.draw(&mut self.rng, CHECK_KEYS);
        for (key, got) in plane.serve_batch(&sample) {
            let pts = sys.series(&key).unwrap_or_default();
            let mut oracle = ForecasterBattery::classic();
            oracle.observe_all(pts.iter().map(|pt| pt.1));
            check(got == oracle.forecast(), || {
                format!(
                    "{}: plane answer for {key} differs from a fresh-battery replay",
                    self.family()
                )
            })?;
        }
        let m = plane.metrics();
        self.out.count("serve.stale", m.stale_served as f64);
        self.out.count("serve.misses", m.misses as f64);
        self.out.count("serve.epoch_lag", m.snapshot_epoch_lag as f64);
        let mean = m.per_shard_queries.iter().sum::<u64>() as f64 / m.shards.max(1) as f64;
        let max = m.per_shard_queries.iter().copied().max().unwrap_or(0) as f64;
        self.out.count("serve.shard_skew", if mean > 0.0 { max / mean } else { 1.0 });
        self.out.count("serve.sites", 1.0);
        Ok(())
    }

    /// Ingest every memory's new points and publish one epoch.
    fn publish(&mut self, plane: &mut ServingPlane) -> f64 {
        let sys = self.sys.as_ref().expect("deployed");
        let ((), ingest_s) = self.tr.span("serve.ingest", || {
            for (_, store) in sys.memories.values() {
                plane.ingest_store(&store.borrow());
            }
        });
        let (_, publish_s) = self.tr.span("serve.publish", || plane.publish(THREADS));
        ingest_s + publish_s
    }

    /// Churn epochs: mutate the platform, remap incrementally, repair the
    /// plan and reconfigure the running system in place.
    fn churn(&mut self) -> Result<(), String> {
        let tr = self.tr;
        for epoch in 0..self.p.churn_epochs {
            let events = self.st.plan_epoch(self.p.churn_events);
            let eng = &mut self.eng;
            let (applied, churn_s) = tr.span("churn.apply", || apply_churn(eng, &events));
            applied.map_err(|e| format!("{} epoch {epoch}: churn failed: {e}", self.family()))?;
            let dirty = self.st.commit(&events);
            self.out.count("churn.events", events.len() as f64);
            self.out.count("churn.dirty_hosts", dirty.len() as f64);

            let prev = self.run.take().expect("mapped");
            let hosts = inputs(self.st.hosts());
            let (master, external) = (self.st.master.clone(), self.st.external.clone());
            let eng = &self.eng;
            let mapper = &self.mapper;
            let (run, remap_s) = tr.span("mapper.remap", || {
                mapper.remap_parallel(
                    eng,
                    &prev,
                    &hosts,
                    &dirty,
                    &master,
                    external.as_deref(),
                    THREADS,
                )
            });
            let run =
                run.map_err(|e| format!("{} epoch {epoch}: remap failed: {e}", self.family()))?;
            self.score_view(&run, "remap")?;
            let old = self.plan.take().expect("planned");
            let (repaired, repair_s) =
                tr.span("repair", || repair_plan(&old, &run.view, &RepairConfig::preserving()));
            let validate_s = self.validate(&repaired.plan, &run, "repaired plan")?;
            let eng = &mut self.eng;
            let sys = self.sys.as_mut().expect("deployed");
            let (done, reconf_s) = tr.span("manager.reconfigure", || {
                apply_plan_delta(eng, sys, &repaired.delta, &repaired.plan)
            });
            done.map_err(|e| format!("{} epoch {epoch}: reconfigure failed: {e}", self.family()))?;
            self.out.attempted += 1;
            self.out.count("mapper.remap_experiments", run.stats.total_experiments() as f64);
            self.out.count("mapper.remaps", 1.0);
            self.out.count("repair.delta_actions", repaired.delta.action_count() as f64);
            self.map_sim_s += run.stats.mapping_seconds;
            self.repair_s += churn_s + remap_s + repair_s + validate_s + reconf_s;
            self.out.fold(repaired.plan.render().as_bytes());
            self.run = Some(run);
            self.plan = Some(repaired.plan);
            let until = self.eng.now() + TimeDelta::from_secs(self.p.sense_step_s);
            self.supervise(until)?;
        }
        Ok(())
    }

    /// End-of-site accounting: exactly-once stores, availability, the
    /// layer counters and the final fingerprint of the stored record.
    fn finish(&mut self) -> Result<(), String> {
        let family = self.family();
        let sys = self.sys.as_ref().expect("deployed");
        let (mut dup, mut rejected, mut served, mut double) = (0u64, 0u64, 0u64, 0i64);
        for (host, (_, store)) in &sys.memories {
            let st = store.borrow();
            let full = st.series.values().any(|s| s.len() >= s.capacity());
            check(!full, || {
                format!("{family}: a series on {host} filled its ring; shorten the run")
            })?;
            let in_series: u64 = st.series.values().map(|s| s.len() as u64).sum();
            double += st.stores as i64 - in_series as i64 - st.rejected as i64;
            dup += st.dup_stores;
            rejected += st.rejected;
            served += st.points_served;
        }
        check(double == 0, || format!("{family}: {double} stores double counted"))?;
        let alive = |pid: &ProcessId| self.eng.process_alive(*pid);
        let down = sys.sensors.iter().filter(|(_, pid)| !alive(pid)).count()
            + sys.memories.values().filter(|(pid, _)| !alive(pid)).count();
        check(down == 0, || format!("{family}: {down} crashed components never healed"))?;
        let record = dump(sys);
        for (_, pts) in &record {
            self.out.coverage.extend(coverage(pts));
        }
        let stores = sys.total_stores();
        let lookups = sys.registry.borrow().lookups;
        let disk = sys.disks.total_stats();
        let eng = self.eng.stats();
        let o = &mut *self.out;
        o.count("nws.stores", stores as f64);
        o.count("nws.dup_stores", dup as f64);
        o.count("nws.rejected", rejected as f64);
        o.count("nws.lookups", lookups as f64);
        o.count("nws.points_served", served as f64);
        o.count("disk.appends", disk.appends as f64);
        o.count("disk.bytes_appended", disk.bytes_appended as f64);
        o.count("disk.fsyncs", disk.fsyncs as f64);
        o.count("disk.bytes_read", disk.bytes_read as f64);
        o.count("disk.compactions", disk.renames as f64);
        o.count("disk.bytes_torn", disk.bytes_torn as f64);
        o.count("engine.events", eng.events_processed as f64);
        o.count("engine.flows", eng.flows_started as f64);
        o.count("engine.messages", eng.messages_sent as f64);
        o.count("engine.dropped", eng.messages_dropped as f64);
        o.count("engine.duplicated", eng.messages_duplicated as f64);
        let mut bytes = Vec::new();
        for (key, pts) in &record {
            bytes.extend_from_slice(key.to_string().as_bytes());
            for (t, v) in pts {
                bytes.extend_from_slice(&t.to_bits().to_le_bytes());
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        bytes.extend_from_slice(&eng.events_processed.to_le_bytes());
        o.fold(&bytes);
        Ok(())
    }
}
