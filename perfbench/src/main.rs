//! End-to-end and per-layer benchmark of the vSCC simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6b_sweep --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One run discards a warm-up unit, repeats the workload's unit for
//! `--seconds`, times a fixed reference loop between units, and reports
//! the median unit time corrected for the host's speed (see `reduce`). With
//! `--trace 1` it then runs one traced unit and reports the per-layer
//! metrics instead of the end-to-end ones. The last line of standard
//! output is the result object; the line before it is a report with the
//! host facts, every raw repeat and the traced unit's spans. README.md
//! in this directory describes the workloads and metrics.

mod alloc;
mod counters;
mod host_speed;
mod probe;
mod reduce;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use counters::ratio;
use reduce::{min_of_repeats, speed_corrected, REFERENCE_S};
use workloads::{Plan, Tally, Workload, PAPER_LPRG_PCT};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured repeats per run, however long a unit takes.
const MIN_REPEATS: usize = 3;
/// Resident memory a run may grow to. The simulator does not free a
/// built platform (every unit leaks; a `fig6b_observed` unit about
/// 29 MB), so a run adds no unit that would pass this budget. When the
/// budget allows fewer units than the window holds, they are spread
/// evenly over the window, which samples the host's speed phases across
/// all of it.
const RSS_BUDGET_MIB: f64 = 400.0;
/// Least host time of one set-up sample: a sample repeats the unit's
/// set-up until it has taken this long, so no sample is a single
/// sub-millisecond reading.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: vscc-perfbench --workload <bt_c64_routing|bt_c225_vdma|fig6b_sweep|\
                     fig6b_observed> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
struct Run {
    warmup_s: f64,
    unit_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Reference-loop times: one before the first unit and one after each.
    ref_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The warm-up unit: the reference every later unit must reproduce.
    reference: Tally,
    /// Allocations of the last measured unit.
    allocs: u64,
    /// `VmHWM` after the warm-up unit and at the end of the run, in MiB.
    peak_rss_warm: Option<f64>,
    peak_rss_end: Option<f64>,
    /// MB/s of the hardware-acknowledged bound and of LPRG at 128 KiB.
    headline: Option<(f64, f64)>,
    /// Host time and tally of the traced unit, and the reference-loop
    /// time measured after it.
    traced: Option<(f64, Tally, f64)>,
}

impl Run {
    /// Unit time, speed-corrected by the reference loops measured just
    /// before and just after each unit.
    fn wall(&self) -> f64 {
        let around: Vec<f64> = self.ref_s.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        speed_corrected(&self.unit_s, &around).unwrap_or(f64::NAN)
    }

    /// Set-up time, speed-corrected by the reference loop measured right
    /// after each set-up sample.
    fn setup(&self) -> f64 {
        speed_corrected(&self.setup_s, &self.ref_s[1..]).unwrap_or(f64::NAN)
    }

    /// Count a unit's simulations, and as failed every one whose virtual
    /// results differ from the reference unit's.
    fn check(&mut self, t: &Tally) {
        let reference = &self.reference.digests;
        let mismatched = (0..t.digests.len().max(reference.len()))
            .filter(|&i| t.digests.get(i) != reference.get(i))
            .count() as u64;
        self.attempted += t.ops;
        self.failed += t.failed.max(mismatched);
    }
}

fn measure(plan: &Plan, seconds: u64, trace: bool) -> Run {
    let t0 = Instant::now();
    let reference = workloads::run_unit(plan, false);
    let mut run = Run {
        warmup_s: t0.elapsed().as_secs_f64(),
        unit_s: Vec::new(),
        setup_s: Vec::new(),
        ref_s: vec![host_speed::run()],
        attempted: reference.ops,
        failed: reference.failed,
        headline: None,
        allocs: 0,
        peak_rss_warm: proc_status_mib("VmHWM:"),
        peak_rss_end: None,
        reference,
        traced: None,
    };
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut growth = 0.0f64;
    loop {
        let rss0 = proc_status_mib("VmRSS:").unwrap_or(0.0);
        let a0 = alloc::count();
        let t0 = Instant::now();
        let unit = workloads::run_unit(plan, false);
        let unit_time = t0.elapsed();
        run.allocs = alloc::count() - a0 + unit.thread_allocs;
        run.check(&unit);
        run.unit_s.push(unit_time.as_secs_f64());
        run.ref_s.push(host_speed::run());

        let t0 = Instant::now();
        let mut passes = 0u32;
        while passes == 0 || t0.elapsed() < SETUP_SAMPLE_MIN {
            workloads::setup_pass(plan);
            passes += 1;
        }
        let setup_time = t0.elapsed();
        run.setup_s.push(setup_time.as_secs_f64() / f64::from(passes));

        let rss = proc_status_mib("VmRSS:").unwrap_or(0.0);
        growth = growth.max(rss - rss0);
        let allowed =
            if growth > 0.0 { ((RSS_BUDGET_MIB - rss) / growth).floor() } else { f64::MAX };
        let remaining = window.saturating_sub(start.elapsed()).as_secs_f64();
        let cost = (unit_time + setup_time).as_secs_f64();
        if run.unit_s.len() >= MIN_REPEATS && (allowed < 1.0 || cost > remaining) {
            break;
        }
        let gap = remaining / allowed.max(1.0) - cost;
        if gap > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(gap));
        }
    }
    run.peak_rss_end = proc_status_mib("VmHWM:");
    run.headline = match run.reference.headline {
        (Some(bound), Some(lprg)) => Some((bound, lprg)),
        _ => {
            run.attempted += 2;
            let points = workloads::headline_points();
            run.failed += if points.is_some() { 0 } else { 2 };
            points
        }
    };
    if trace {
        let t0 = Instant::now();
        let traced = workloads::run_unit(plan, true);
        let wall = t0.elapsed().as_secs_f64();
        run.check(&traced);
        run.traced = Some((wall, traced, host_speed::run()));
    }
    run
}

/// A `/proc/self/status` memory field (`VmHWM:`, `VmRSS:`) in MiB.
fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Named metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(run: &Run) -> Metrics {
    let paper_err = run.headline.map(|(bound, lprg)| (lprg / bound * 100.0 - PAPER_LPRG_PCT).abs());
    vec![
        ("wall_s", run.wall(), "s"),
        ("setup_s", run.setup(), "s"),
        ("peak_rss_mb", run.peak_rss_warm.unwrap_or(f64::NAN), "MiB"),
        ("sim_mcycles", run.reference.sim_cycles as f64 / 1e6, "Mcycles"),
        ("paper_err_pp", paper_err.unwrap_or(f64::NAN), "pp"),
    ]
}

fn per_layer(run: &Run, wall: f64, t: &Tally, ref_after: f64) -> Metrics {
    let untraced = run.wall();
    let ref_before = run.ref_s.last().copied().unwrap_or(f64::NAN);
    let traced = wall / ((ref_before + ref_after) / 2.0) * REFERENCE_S;
    let c = &t.counters;
    let (s, l) = (&t.spans, &t.layers);
    let other = wall - s.build - s.session - l.onchip_s - l.inter_s - s.export;
    vec![
        ("des.polls", c.polls as f64, "count"),
        ("des.timers_set", c.timers_set as f64, "count"),
        ("des.spawned", c.spawned as f64, "count"),
        ("des.allocs", run.allocs as f64, "count"),
        ("des.host_ns_per_poll", untraced * 1e9 / c.polls as f64, "ns"),
        ("scc.mpb_reads", c.mpb_reads as f64, "count"),
        ("scc.mpb_writes", c.mpb_writes as f64, "count"),
        ("scc.cl1inv", c.cl1inv as f64, "count"),
        ("pcie.link_busy_pct", 100.0 * ratio(c.link_busy, c.link_span), "%"),
        ("pcie.link_mb", c.link_bytes as f64 / 1e6, "MB"),
        ("pcie.conduit_tlps", c.conduit_tlps as f64, "count"),
        ("rcce.onchip_s", l.onchip_s, "s"),
        ("rcce.onchip_polls", l.onchip_polls as f64, "count"),
        ("rcce.session_s", s.session, "s"),
        ("rcce.poll_scans", c.poll_scans as f64, "count"),
        ("rcce.lock_wait_mcycles", c.lock_wait as f64 / 1e6, "Mcycles"),
        ("vscc.interdevice_s", l.inter_s, "s"),
        ("vscc.interdevice_polls", l.inter_polls as f64, "count"),
        ("vscc.routed_lines", c.routed_lines as f64, "count"),
        ("vscc.vdma_ops", c.vdma_ops as f64, "count"),
        ("vscc.commtask_busy_pct", 100.0 * ratio(c.commtask_busy, c.commtask_span), "%"),
        (
            "vscc.swcache_hit_ratio",
            ratio(c.swcache_hits, c.swcache_hits + c.swcache_misses),
            "ratio",
        ),
        ("vscc.wcb_merge_ratio", ratio(c.wcb_merges, c.wcb_merges + c.wcb_flushes), "ratio"),
        ("vscc.build_s", s.build, "s"),
        ("obs.export_s", s.export, "s"),
        ("obs.export_mb", t.export_bytes as f64 / 1e6, "MB"),
        ("obs.trace_events", t.trace_events as f64, "count"),
        ("run.other_s", other, "s"),
        ("trace.overhead_pct", 100.0 * traced / untraced, "%"),
    ]
}

/// A JSON number; non-finite values (which JSON cannot hold) become null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(","))
}

/// First line of `/proc/cpuinfo`'s `model name`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the kernel exposes a hardware PMU (`perf` events beyond the
/// software ones).
fn pmu() -> &'static str {
    let dir = Path::new("/sys/bus/event_source/devices");
    if dir.join("cpu").exists() || dir.join("cpu_core").exists() {
        "present"
    } else {
        "none (software events only)"
    }
}

fn report_line(args: &Args, run: &Run) -> String {
    let esc = des::obs::json_escape;
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"pmu\":\"{}\",\"rustc\":\"{}\",\
         \"profile\":\"{}\"}},\"warmup_s\":{},\"unit_s\":{},\"setup_s\":{},\
         \"ref_s\":{},\"wall_min_s\":{},\"peak_rss_end_mb\":{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        esc(&cpu_model()),
        pmu(),
        esc(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
        number(run.warmup_s),
        number_list(&run.unit_s),
        number_list(&run.setup_s),
        number_list(&run.ref_s),
        number(min_of_repeats(&run.unit_s).unwrap_or(f64::NAN)),
        number(run.peak_rss_end.unwrap_or(f64::NAN)),
    );
    if let Some((wall, t, _)) = &run.traced {
        let (s, l) = (&t.spans, &t.layers);
        let _ = write!(
            out,
            ",\"spans\":{{\"unit\":{},\"build\":{},\"session\":{},\"run\":{},\
             \"run.onchip\":{},\"run.interdevice\":{},\"export\":{}}}",
            number(*wall),
            number(s.build),
            number(s.session),
            number(s.run),
            number(l.onchip_s),
            number(l.inter_s),
            number(s.export),
        );
    }
    out.push_str("}}");
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The workloads measure the default configuration; the simulator's
    // environment knobs (fault plans, sharding, exports) would change it.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("VSCC_")) {
        eprintln!("{k} is set; unset every VSCC_* variable to run the benchmark");
        return ExitCode::from(2);
    }
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/goldens");
    let plan = match Plan::new(args.workload, args.seed, &goldens) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let run = measure(&plan, args.seconds, args.trace);
    let metrics = match &run.traced {
        Some((wall, t, ref_after)) => per_layer(&run, *wall, t, *ref_after),
        None => end_to_end(&run),
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut failed = run.failed;
    if metrics.iter().any(|&(name, v, _)| name == "run.other_s" && v < 0.0) {
        eprintln!("traced unit: the layer spans exceed the unit's wall time");
        failed += 1;
    }
    let correct = failed == 0 && finite;

    println!(
        "{}: {} measured units (warm-up {:.3} s discarded), {} simulations, {} failed",
        args.workload.name(),
        run.unit_s.len(),
        run.warmup_s,
        run.attempted,
        failed
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<26} {v:>16.6} {unit}");
    }
    println!("{}", report_line(&args, &run));
    println!("{}", result_line(correct, run.attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
