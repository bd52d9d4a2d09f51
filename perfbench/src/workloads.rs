//! The four workloads, each a deterministic unit of simulations.
//!
//! A unit is run untraced through the apps' public entry points
//! (`npb::run_bt`, `pingpong::interdevice`, `pingpong::interdevice_sampled`,
//! `pingpong::interdevice_observed`), or traced: the same simulations
//! with the session's protocol layers wrapped by [`Probes`] and every
//! layer's counters read after each run. The traced variant of a
//! ping-pong point rebuilds what `pingpong` does internally, so that the
//! decorators can be installed; comparing its virtual results with the
//! untraced unit's checks that the rebuild is faithful.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use des::obs::{Registry, SamplerSpec, TimeSeries, DEFAULT_CADENCE};
use des::time::CORE_FREQ;
use des::trace::{Category, Trace};
use des::Sim;
use rcce::{Rcce, Session};
use scc::geometry::CoreId;
use vscc::{CommScheme, Vscc, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::pingpong::{self, FIG_DEVICES};

use crate::counters::Counters;
use crate::probe::Probes;

/// Round trips per fig6b sweep point (the `fig6b_interdevice` bench's count).
const SWEEP_REPS: usize = 3;
/// Round trips per observed point (the golden-export configuration's count).
const OBSERVED_REPS: usize = 1;
/// Largest message size of the observed workload.
const OBSERVED_MAX_SIZE: usize = 32 * 1024;
/// The message size of the paper's local-put/remote-get headline.
pub const HEADLINE_SIZE: usize = 128 * 1024;
/// The paper's headline: local put / remote get reaches this share (%)
/// of the hardware-acknowledged remote-put bound.
pub const PAPER_LPRG_PCT: f64 = 71.72;
/// Cores per SCC device (linear rank extension over devices).
const CORES_PER_DEVICE: usize = 48;

/// Schemes and sizes of the committed fig6b export goldens, in file order.
const GOLDEN_SCHEMES: [(&str, CommScheme); 5] = [
    ("simple_routing", CommScheme::SimpleRouting),
    ("remote_put_hwack", CommScheme::RemotePutHwAck),
    ("remote_put_wcb", CommScheme::RemotePutWcb),
    ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
    ("local_put_local_get", CommScheme::LocalPutLocalGet),
];
const GOLDEN_SIZES: [usize; 2] = [1024, 8192];
const GOLDEN_TS_SCHEMES: [(&str, CommScheme); 2] = [
    ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
    ("local_put_local_get", CommScheme::LocalPutLocalGet),
];
const GOLDEN_TS_SIZE: usize = 8192;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BtC64Routing,
    BtC225Vdma,
    Fig6bSweep,
    Fig6bObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BtC64Routing,
        Workload::BtC225Vdma,
        Workload::Fig6bSweep,
        Workload::Fig6bObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BtC64Routing => "bt_c64_routing",
            Workload::BtC225Vdma => "bt_c225_vdma",
            Workload::Fig6bSweep => "fig6b_sweep",
            Workload::Fig6bObserved => "fig6b_observed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One BT simulation: class C, one measured iteration, no warm-up
/// iteration, ranks laid out linearly over as many devices as they fill.
#[derive(Clone, Copy, Debug)]
pub struct BtPoint {
    pub scheme: CommScheme,
    pub ranks: usize,
    pub class: BtClass,
}

impl BtPoint {
    fn platform(self) -> Vscc {
        let devices = self.ranks.div_ceil(CORES_PER_DEVICE) as u8;
        VsccBuilder::new(&Sim::new(), devices).scheme(self.scheme).build()
    }

    fn config(self) -> BtConfig {
        let mut cfg = BtConfig::new(self.class, self.ranks);
        cfg.warmup = 0;
        cfg.measured = 1;
        cfg
    }
}

/// The committed export goldens, split into one section per simulation.
pub struct Goldens {
    trace: Vec<String>,
    metrics: Vec<String>,
    timeseries: Vec<String>,
}

impl Goldens {
    /// Read `fig6b_{trace,metrics,timeseries}_exports.txt` from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let read = |file: &str| {
            let path = dir.join(file);
            std::fs::read_to_string(&path)
                .map(|text| split_sections(&text).into_iter().map(str::to_owned).collect())
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
        };
        let g = Goldens {
            trace: read("fig6b_trace_exports.txt")?,
            metrics: read("fig6b_metrics_exports.txt")?,
            timeseries: read("fig6b_timeseries_exports.txt")?,
        };
        let points = GOLDEN_SCHEMES.len() * GOLDEN_SIZES.len();
        if g.trace.len() != points
            || g.metrics.len() != points
            || g.timeseries.len() != GOLDEN_TS_SCHEMES.len()
        {
            return Err(format!("goldens in {} do not have the expected sections", dir.display()));
        }
        Ok(g)
    }
}

/// Split an export golden at its `=== <scheme> size=<n> cycles=<c> ===`
/// header lines; each section runs from its header to the next one.
pub fn split_sections(text: &str) -> Vec<&str> {
    let starts: Vec<usize> = text
        .match_indices("=== ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &s)| &text[s..starts.get(k + 1).copied().unwrap_or(text.len())])
        .collect()
}

/// Everything a workload's unit needs, fixed before timing starts.
pub struct Plan {
    workload: Workload,
    /// The BT simulation (BT workloads).
    bt: Option<BtPoint>,
    /// Ping-pong points in run order (fig6b workloads).
    points: Vec<(CommScheme, usize)>,
    goldens: Option<Goldens>,
}

impl Plan {
    /// The unit of `workload`. On `fig6b_sweep` the seed fixes the order
    /// of the ping-pong points: every point is an independent simulation,
    /// so the order changes no virtual result. `fig6b_observed` keeps the
    /// sizes' order, because its heap after a unit (and so `peak_rss_mb`)
    /// depends on the order. BT's unit is one simulation.
    pub fn new(workload: Workload, seed: u64, goldens_dir: &Path) -> Result<Self, String> {
        let bt = |scheme, ranks| Some(BtPoint { scheme, ranks, class: BtClass::C });
        let grid = |max: usize| -> Vec<(CommScheme, usize)> {
            CommScheme::ALL
                .into_iter()
                .flat_map(|s| {
                    pingpong::fig6_sizes().into_iter().filter(|&z| z <= max).map(move |z| (s, z))
                })
                .collect()
        };
        let (bt, mut points, goldens) = match workload {
            Workload::BtC64Routing => (bt(CommScheme::SimpleRouting, 64), vec![], None),
            Workload::BtC225Vdma => (bt(CommScheme::LocalPutLocalGet, 225), vec![], None),
            Workload::Fig6bSweep => (None, grid(usize::MAX), None),
            Workload::Fig6bObserved => {
                (None, grid(OBSERVED_MAX_SIZE), Some(Goldens::load(goldens_dir)?))
            }
        };
        if workload == Workload::Fig6bSweep {
            shuffle(&mut points, seed);
        }
        Ok(Plan { workload, bt, points, goldens })
    }

    /// A plan running one BT simulation (used by the self-tests).
    #[cfg(test)]
    pub fn bt_only(point: BtPoint) -> Self {
        Plan { workload: Workload::BtC64Routing, bt: Some(point), points: vec![], goldens: None }
    }
}

/// Fisher-Yates shuffle driven by SplitMix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over 64-bit words: the digest of one simulation's virtual results.
fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Host time of the unit's parts, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `Sim::new` and `VsccBuilder::build`.
    pub build: f64,
    /// The session build.
    pub session: f64,
    /// `run_bt` / `run_app`.
    pub run: f64,
    /// The export calls (`chrome_trace_json*`, `Snapshot::to_json`,
    /// `TimeSeries::to_json`).
    pub export: f64,
}

/// Protocol-layer totals of a traced unit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub onchip_s: f64,
    pub onchip_polls: u64,
    pub inter_s: f64,
    pub inter_polls: u64,
}

/// What one unit did and produced.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Simulations run.
    pub ops: u64,
    /// Simulations that failed (error, panic, BT not verified, golden
    /// mismatch).
    pub failed: u64,
    /// Sum of `Sim::now()` at the end of every simulation.
    pub sim_cycles: u64,
    /// Digest of each simulation's virtual results, in plan order (the
    /// golden simulations last).
    pub digests: Vec<u64>,
    /// MB/s of the hardware-acknowledged remote put and of local put /
    /// remote get at [`HEADLINE_SIZE`], when the unit ran them.
    pub headline: (Option<f64>, Option<f64>),
    /// Host-time spans (reported for the traced unit).
    pub spans: Spans,
    pub layers: Layers,
    /// Counter totals (traced unit only).
    pub counters: Counters,
    /// Bytes rendered by the export calls.
    pub export_bytes: u64,
    /// Trace events recorded (`Trace::with_events` length).
    pub trace_events: u64,
    /// Heap allocations made by helper threads.
    pub thread_allocs: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.sim_cycles += o.sim_cycles;
        self.digests.extend(o.digests);
        self.spans.build += o.spans.build;
        self.spans.session += o.spans.session;
        self.spans.run += o.spans.run;
        self.spans.export += o.spans.export;
        self.layers.onchip_s += o.layers.onchip_s;
        self.layers.onchip_polls += o.layers.onchip_polls;
        self.layers.inter_s += o.layers.inter_s;
        self.layers.inter_polls += o.layers.inter_polls;
        self.counters += o.counters;
        self.export_bytes += o.export_bytes;
        self.trace_events += o.trace_events;
        self.thread_allocs += o.thread_allocs;
    }

    fn add_probes(&mut self, probes: &Probes) {
        self.layers.onchip_s += probes.onchip.secs();
        self.layers.onchip_polls += probes.onchip.polls();
        self.layers.inter_s += probes.inter.secs();
        self.layers.inter_polls += probes.inter.polls();
    }

    /// Count one simulation that ran for `cycles`: its virtual results,
    /// or `None` when it failed (recorded with the digest 0).
    fn record(&mut self, cycles: u64, results: Option<&[u64]>) {
        self.ops += 1;
        self.sim_cycles += cycles;
        match results {
            Some(r) => self.digests.push(digest(r)),
            None => {
                self.failed += 1;
                self.digests.push(0);
            }
        }
    }
}

/// Run one unit of `plan`, traced or not.
pub fn run_unit(plan: &Plan, traced: bool) -> Tally {
    let probes = traced.then(Probes::default);
    let mut t = Tally::default();
    if let Some(point) = plan.bt {
        bt(&mut t, point, probes.as_ref());
    }
    for &(scheme, size) in &plan.points {
        match plan.workload {
            Workload::Fig6bObserved => observed_point(&mut t, scheme, size, probes.as_ref()),
            _ => sweep_point(&mut t, scheme, size, probes.as_ref()),
        }
    }
    if let Some(goldens) = &plan.goldens {
        golden_exports(&mut t, goldens, probes.as_ref());
        let ts = std::thread::scope(|s| {
            s.spawn(|| golden_timeseries(goldens, traced))
                .join()
                .expect("time-series golden thread")
        });
        t.merge(ts);
    }
    if let Some(p) = &probes {
        t.add_probes(p);
    }
    t
}

fn bt(t: &mut Tally, point: BtPoint, probes: Option<&Probes>) {
    let t0 = Instant::now();
    let v = point.platform();
    let t1 = Instant::now();
    let s = match probes {
        None => v.session_with_ranks(point.ranks),
        Some(p) => p.session_builder(&v).max_ranks(point.ranks).build(),
    };
    let t2 = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| run_bt(&s, &point.config())));
    let t3 = Instant::now();
    t.spans.build += (t1 - t0).as_secs_f64();
    t.spans.session += (t2 - t1).as_secs_f64();
    t.spans.run += (t3 - t2).as_secs_f64();
    let now = v.sim.now();
    match res {
        Ok(Ok(r)) if r.verified => t.record(now, Some(&[now, r.cycles, r.messages])),
        _ => t.record(now, None),
    }
    if probes.is_some() {
        t.counters += Counters::read(&v);
    }
}

/// MB/s of a ping-pong point, as `pingpong` computes it.
fn mbps(size: usize, reps: usize, cycles: u64) -> f64 {
    CORE_FREQ.mbytes_per_sec((2 * reps * size) as u64, cycles)
}

fn sweep_point(t: &mut Tally, scheme: CommScheme, size: usize, probes: Option<&Probes>) {
    let cycles = match probes {
        None => catch_unwind(|| pingpong::interdevice(scheme, size, SWEEP_REPS).cycles).ok(),
        Some(p) => {
            let mut sys = PingSystem::build(t, scheme, None, p);
            let ok = sys.run(t, size, SWEEP_REPS);
            t.counters += Counters::read(&sys.v);
            ok.then(|| sys.v.sim.now())
        }
    };
    match cycles {
        Some(c) => t.record(c, Some(&[size as u64, c])),
        None => t.record(0, None),
    }
    if size == HEADLINE_SIZE {
        if let Some(c) = cycles {
            let rate = Some(mbps(size, SWEEP_REPS, c));
            match scheme {
                CommScheme::RemotePutHwAck => t.headline.0 = rate,
                CommScheme::LocalPutRemoteGet => t.headline.1 = rate,
                _ => {}
            }
        }
    }
}

/// The outputs of one observed ping-pong simulation.
struct Observed {
    cycles: u64,
    trace: Trace,
    registry: Registry,
    series: Option<TimeSeries>,
}

/// One observed point: run sampled (or unsampled for the trace/metrics
/// golden configuration) with every trace category on.
fn observe(
    t: &mut Tally,
    scheme: CommScheme,
    size: usize,
    sampled: bool,
    probes: Option<&Probes>,
) -> Option<Observed> {
    match probes {
        None => catch_unwind(|| {
            if sampled {
                let (p, trace, registry, ts) =
                    pingpong::interdevice_sampled(scheme, size, OBSERVED_REPS, DEFAULT_CADENCE);
                Observed { cycles: p.cycles, trace, registry, series: Some(ts) }
            } else {
                let (p, trace, registry) =
                    pingpong::interdevice_observed(scheme, size, OBSERVED_REPS);
                Observed { cycles: p.cycles, trace, registry, series: None }
            }
        })
        .ok(),
        Some(p) => {
            let registry = Registry::new();
            let mut sys = PingSystem::build(t, scheme, Some(&registry), p);
            let series = sampled.then(|| sys.v.spawn_sampler(&SamplerSpec::every(DEFAULT_CADENCE)));
            let ok = sys.run(t, size, OBSERVED_REPS);
            let cycles = sys.v.sim.now();
            if let Some(ts) = &series {
                ts.finish(cycles);
            }
            t.counters += Counters::read(&sys.v);
            ok.then(|| Observed { cycles, trace: sys.v.trace().clone(), registry, series })
        }
    }
}

fn observed_point(t: &mut Tally, scheme: CommScheme, size: usize, probes: Option<&Probes>) {
    let Some(o) = observe(t, scheme, size, true, probes) else {
        return t.record(0, None);
    };
    let series = o.series.as_ref().expect("sampled run has a series");
    let t0 = Instant::now();
    let trace_json =
        des::obs::chrome_trace_json_with_tracks(&[("pingpong", &o.trace)], &[("pingpong", series)]);
    let metrics_json = o.registry.snapshot().to_json();
    let series_json = series.to_json();
    t.spans.export += t0.elapsed().as_secs_f64();
    t.export_bytes += (trace_json.len() + metrics_json.len() + series_json.len()) as u64;
    let events = o.trace.with_events(|e| e.len()) as u64;
    t.trace_events += events;
    // The series (and the trace's counter tracks) also sample the
    // thread-local byte pool, whose state depends on what ran before;
    // only the metrics export and the trace are pure virtual results.
    t.record(o.cycles, Some(&[size as u64, o.cycles, metrics_json.len() as u64, events]));
}

/// Render the `tests/golden_exports.rs` trace and metrics configuration
/// and compare every section with the committed goldens.
fn golden_exports(t: &mut Tally, goldens: &Goldens, probes: Option<&Probes>) {
    let points = GOLDEN_SCHEMES.iter().flat_map(|&(n, s)| GOLDEN_SIZES.map(|z| (n, s, z)));
    for (k, (name, scheme, size)) in points.enumerate() {
        let Some(o) = observe(t, scheme, size, false, probes) else {
            t.record(0, None);
            continue;
        };
        let t0 = Instant::now();
        let header = format!("=== {name} size={size} cycles={} ===\n", o.cycles);
        let trace = format!("{header}{}\n", des::obs::chrome_trace_json(&[("pingpong", &o.trace)]));
        let metrics = format!("{header}{}\n", o.registry.snapshot().to_json());
        t.spans.export += t0.elapsed().as_secs_f64();
        t.export_bytes += (trace.len() + metrics.len()) as u64;
        t.trace_events += o.trace.with_events(|e| e.len()) as u64;
        let matches = trace == goldens.trace[k] && metrics == goldens.metrics[k];
        if !matches {
            eprintln!("golden mismatch: {name} size={size} trace/metrics export");
        }
        t.record(o.cycles, matches.then_some(&[size as u64, o.cycles][..]));
    }
}

/// Render the time-series golden configuration. Runs on a fresh thread:
/// the series tracks the thread-local byte pool, whose starting state a
/// fresh thread pins.
fn golden_timeseries(goldens: &Goldens, traced: bool) -> Tally {
    let probes = traced.then(Probes::default);
    let mut t = Tally::default();
    for (k, (name, scheme)) in GOLDEN_TS_SCHEMES.into_iter().enumerate() {
        let Some(o) = observe(&mut t, scheme, GOLDEN_TS_SIZE, true, probes.as_ref()) else {
            t.record(0, None);
            continue;
        };
        let series = o.series.as_ref().expect("sampled run has a series");
        let t0 = Instant::now();
        let text = format!(
            "=== {name} size={GOLDEN_TS_SIZE} cycles={} ===\n{}",
            o.cycles,
            series.to_json()
        );
        t.spans.export += t0.elapsed().as_secs_f64();
        t.export_bytes += text.len() as u64;
        t.trace_events += o.trace.with_events(|e| e.len()) as u64;
        let matches = text == goldens.timeseries[k];
        if !matches {
            eprintln!("golden mismatch: {name} size={GOLDEN_TS_SIZE} time-series export");
        }
        t.record(o.cycles, matches.then_some(&[GOLDEN_TS_SIZE as u64, o.cycles][..]));
    }
    if let Some(p) = &probes {
        t.add_probes(p);
    }
    t.thread_allocs = crate::alloc::count();
    t
}

/// A traced fig6b platform: `pingpong::interdevice*`'s set-up with the
/// protocol layers wrapped.
struct PingSystem {
    v: Vscc,
    session: Session,
}

impl PingSystem {
    fn build(t: &mut Tally, scheme: CommScheme, obs: Option<&Registry>, probes: &Probes) -> Self {
        let t0 = Instant::now();
        let v = fig_platform(scheme, obs);
        let t1 = Instant::now();
        let session = probes.session_builder(&v).participants(fig_pair(&v)).build();
        t.spans.build += (t1 - t0).as_secs_f64();
        t.spans.session += t1.elapsed().as_secs_f64();
        PingSystem { v, session }
    }

    fn run(&mut self, t: &mut Tally, size: usize, reps: usize) -> bool {
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            self.session.run_app(move |r| bounce(r, size, reps)).is_ok()
        }));
        t.spans.run += t0.elapsed().as_secs_f64();
        res.unwrap_or(false)
    }
}

/// The ping-pong rank program, as `pingpong` runs it.
async fn bounce(r: Rcce, size: usize, reps: usize) {
    let peer = 1 - r.id();
    let msg = vec![0xA5u8; size];
    let mut buf = vec![0u8; size];
    for _ in 0..reps {
        if r.id() == 0 {
            r.send(&msg, peer).await;
            r.recv(&mut buf, peer).await;
        } else {
            r.recv(&mut buf, peer).await;
            r.send(&buf, peer).await;
        }
    }
}

/// Set up the unit's platforms and sessions once, without running them:
/// the same `Sim::new`, `VsccBuilder::build` and session-build calls the
/// unit makes.
pub fn setup_pass(plan: &Plan) {
    if let Some(point) = plan.bt {
        std::hint::black_box(point.platform().session_with_ranks(point.ranks));
    }
    let observed = plan.goldens.is_some();
    let golden_points = GOLDEN_SCHEMES
        .iter()
        .flat_map(|&(_, s)| GOLDEN_SIZES.map(|z| (s, z)))
        .chain(GOLDEN_TS_SCHEMES.iter().map(|&(_, s)| (s, GOLDEN_TS_SIZE)))
        .filter(|_| observed);
    for (scheme, _) in plan.points.iter().copied().chain(golden_points) {
        let registry = Registry::new();
        let v = fig_platform(scheme, observed.then_some(&registry));
        std::hint::black_box(v.session_builder().participants(fig_pair(&v)).build());
    }
}

/// The fig6b platform as `pingpong` builds it; `obs` adds its registry
/// and every trace category (the observed and sampled variants).
fn fig_platform(scheme: CommScheme, obs: Option<&Registry>) -> Vscc {
    let sim = Sim::new();
    let mut b = VsccBuilder::new(&sim, FIG_DEVICES).scheme(scheme);
    if let Some(reg) = obs {
        b = b.metrics_registry(reg).trace_categories(&Category::ALL);
    }
    b.build()
}

/// The ping-pong pair: core 0 of device 0 and core 0 of device 1.
fn fig_pair(v: &Vscc) -> Vec<scc::geometry::GlobalCore> {
    vec![v.devices[0].global(CoreId(0)), v.devices[1].global(CoreId(0))]
}

/// MB/s of the two headline points, run untraced outside any unit (for
/// workloads whose unit does not contain them).
pub fn headline_points() -> Option<(f64, f64)> {
    let rate = |scheme| {
        catch_unwind(|| pingpong::interdevice(scheme, HEADLINE_SIZE, SWEEP_REPS).mbps).ok()
    };
    Some((rate(CommScheme::RemotePutHwAck)?, rate(CommScheme::LocalPutRemoteGet)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goldens_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/goldens")
    }

    /// The decorators only add host time: a small two-device BT gives
    /// the same virtual results and verification with and without them,
    /// and both decorated layers really were polled.
    #[test]
    fn decorators_are_pass_through() {
        for scheme in [CommScheme::SimpleRouting, CommScheme::LocalPutLocalGet] {
            let plan = Plan::bt_only(BtPoint { scheme, ranks: 64, class: BtClass::S });
            let plain = run_unit(&plan, false);
            let traced = run_unit(&plan, true);
            assert_eq!((plain.ops, plain.failed), (1, 0), "{scheme:?}: BT must verify");
            assert_eq!((traced.ops, traced.failed), (1, 0), "{scheme:?}: traced BT must verify");
            assert_eq!(plain.sim_cycles, traced.sim_cycles, "{scheme:?}: virtual time moved");
            assert_eq!(plain.digests, traced.digests, "{scheme:?}: virtual results moved");
            assert!(traced.layers.onchip_polls > 0 && traced.layers.inter_polls > 0);
            assert!(traced.counters.polls > 0);
        }
    }

    /// The rendered golden configuration equals the committed goldens,
    /// untraced and through the decorators.
    #[test]
    fn golden_renderer_matches_committed_goldens() {
        let goldens = Goldens::load(&goldens_dir()).expect("committed goldens");
        for traced in [false, true] {
            let probes = traced.then(Probes::default);
            let mut t = Tally::default();
            golden_exports(&mut t, &goldens, probes.as_ref());
            let ts = std::thread::scope(|s| {
                s.spawn(|| golden_timeseries(&goldens, traced)).join().expect("time-series thread")
            });
            t.merge(ts);
            assert_eq!((t.ops, t.failed), (12, 0), "traced={traced}");
        }
    }

    #[test]
    fn sections_split_at_header_lines() {
        let text = "=== a size=1 cycles=2 ===\n{\"x\":1}\n=== b size=3 cycles=4 ===\n{}\n";
        let s = split_sections(text);
        assert_eq!(
            s,
            ["=== a size=1 cycles=2 ===\n{\"x\":1}\n", "=== b size=3 cycles=4 ===\n{}\n"]
        );
        assert!(split_sections("").is_empty());
    }

    #[test]
    fn seed_permutes_the_sweep_deterministically() {
        let dir = goldens_dir();
        let a = Plan::new(Workload::Fig6bSweep, 1, &dir).unwrap().points;
        let b = Plan::new(Workload::Fig6bSweep, 1, &dir).unwrap().points;
        let c = Plan::new(Workload::Fig6bSweep, 2, &dir).unwrap().points;
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted_a = a.clone();
        let mut sorted_c = c.clone();
        let key = |p: &(CommScheme, usize)| (p.0 as u8, p.1);
        sorted_a.sort_by_key(key);
        sorted_c.sort_by_key(key);
        assert_eq!(sorted_a, sorted_c);
        assert_eq!(a.len(), CommScheme::ALL.len() * pingpong::fig6_sizes().len());
        let observed = Plan::new(Workload::Fig6bObserved, 1, &dir).unwrap().points;
        assert_eq!(observed.len(), CommScheme::ALL.len() * 15);
    }
}
