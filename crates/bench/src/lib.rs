//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Every `cargo bench` target in this crate rebuilds one table or figure
//! of the paper's evaluation (§4) and prints its rows/series; the
//! `engine_micro` target additionally measures the simulator's own
//! host-side speed. Absolute numbers come from the calibrated simulation
//! (see DESIGN.md §5); the *shapes* — orderings, ratios, crossovers — are
//! the reproduction targets and are recorded in EXPERIMENTS.md.

use std::sync::Mutex;

pub mod host_speed;

use des::obs::{Registry, TimeSeries, AUDIT_ENV, METRICS_ENV, TIMESERIES_ENV, TRACE_ENV};
use des::trace::Trace;

/// Print a figure/table banner. If a `VSCC_FAULTS` plan is active it is
/// echoed here, so exported tables are never mistaken for clean-run
/// numbers.
pub fn banner(id: &str, caption: &str) {
    println!("\n================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
    if let Some(spec) = des::faultplan::spec_from_env() {
        println!("[faults] {} plan active: {spec}", des::obs::FAULTS_ENV);
    }
}

/// Format one numeric row with a label column.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<42}");
    for v in values {
        s.push_str(&format!(" {v:>9.2}"));
    }
    s
}

/// Format a header row.
pub fn header(label: &str, columns: &[String]) -> String {
    let mut s = format!("{label:<42}");
    for c in columns {
        s.push_str(&format!(" {c:>9}"));
    }
    s
}

/// Human-readable byte sizes for column headers.
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

/// Whether the headline shape assertions should run. They encode the
/// paper's clean-run results, and an injected `VSCC_FAULTS` plan
/// legitimately shifts them (or, for payload checks without
/// `recovery=on`, breaks them outright), so an active env plan
/// downgrades the assertions to printed tables — the banner already
/// flags the run as faulty.
pub fn headline_asserts() -> bool {
    des::faultplan::spec_from_env().is_none()
}

/// Whether either observability env var asks for an export. Benches use
/// this to skip the extra fully-traced run when nobody wants the output.
pub fn observability_requested() -> bool {
    let set = |var: &str| std::env::var(var).map(|v| !v.is_empty()).unwrap_or(false);
    set(TRACE_ENV) || set(METRICS_ENV) || set(TIMESERIES_ENV)
}

/// Honour the observability env vars at the end of a bench target: write
/// the Chrome trace of `traces` when `VSCC_TRACE=path` is set and the
/// metrics snapshot of `registry` when `VSCC_METRICS=path` is set (see
/// DESIGN.md §"Observability"). Prints the paths written so the user can
/// find the artifacts in the bench output.
pub fn export_observability(registry: &Registry, traces: &[(&str, &Trace)]) {
    export_observability_sampled(registry, traces, &[]);
}

/// [`export_observability`] for targets that also ran the virtual-time
/// sampler: `series` pairs are merged into the Chrome trace as Perfetto
/// counter tracks, and — when `VSCC_TIMESERIES=path` is set — the first
/// series is written there as the windowed time-series export. Targets
/// that pass no series print a hint instead of silently ignoring the
/// request.
pub fn export_observability_sampled(
    registry: &Registry,
    traces: &[(&str, &Trace)],
    series: &[(&str, &TimeSeries)],
) {
    match des::obs::export_trace_if_env_with_tracks(traces, series) {
        Ok(Some(path)) => println!("[obs] Chrome trace written to {path} ({TRACE_ENV})"),
        Ok(None) => {}
        Err(e) => eprintln!("[obs] {TRACE_ENV} export failed: {e}"),
    }
    match des::obs::export_metrics_if_env(registry) {
        Ok(Some(path)) => println!("[obs] metrics snapshot written to {path} ({METRICS_ENV})"),
        Ok(None) => {}
        Err(e) => eprintln!("[obs] {METRICS_ENV} export failed: {e}"),
    }
    let timeseries_wanted = std::env::var(TIMESERIES_ENV).map(|v| !v.is_empty()).unwrap_or(false);
    match series.first() {
        Some((name, ts)) => match des::obs::export_timeseries_if_env(ts) {
            Ok(Some(path)) => {
                println!("[obs] time-series ({name}) written to {path} ({TIMESERIES_ENV})")
            }
            Ok(None) => {}
            Err(e) => eprintln!("[obs] {TIMESERIES_ENV} export failed: {e}"),
        },
        None if timeseries_wanted => {
            println!("[obs] {TIMESERIES_ENV} set but this target runs no sampler; no export")
        }
        None => {}
    }
}

/// Whether `VSCC_AUDIT` asks for an audit-stream export. Benches use
/// this to skip the extra audited run when nobody wants the output.
pub fn audit_requested() -> bool {
    des::obs::audit_requested()
}

/// The `VSCC_AUDIT_ZOOM=<epoch>` zoom target, if set.
pub fn audit_zoom_from_env() -> Option<u64> {
    des::obs::audit_zoom_from_env()
}

/// Honour `VSCC_AUDIT` at the end of a bench target: write the audit
/// stream there and print the path (and the active zoom window, if
/// any), mirroring [`export_observability`].
pub fn export_audit(audit: &des::audit::Audit) {
    match des::obs::export_audit_if_env(audit) {
        Ok(Some(path)) => match audit_zoom_from_env() {
            Some(epoch) => {
                println!("[obs] audit stream (zoom epoch {epoch}) written to {path} ({AUDIT_ENV})")
            }
            None => println!("[obs] audit stream written to {path} ({AUDIT_ENV})"),
        },
        Ok(None) => {}
        Err(e) => eprintln!("[obs] {AUDIT_ENV} export failed: {e}"),
    }
}

/// Whether `VSCC_CRITPATH=1` asks the benches to print critical-path
/// phase-attribution tables (see `des::critpath`).
pub fn critpath_requested() -> bool {
    des::obs::critpath_requested()
}

/// Render per-run phase attribution: each row is one traced run
/// (label, trace, measured completion cycles). Attribution covers
/// `[0, cycles]`, so the printed phases sum to the measured time exactly
/// (integer cycles, no rounding).
pub fn critpath_table(label_header: &str, rows: &[(String, Trace, u64)]) -> String {
    let attributed: Vec<(String, des::critpath::Attribution)> = rows
        .iter()
        .map(|(label, trace, end)| (label.clone(), des::critpath::run_attribution(trace, 0, *end)))
        .collect();
    des::critpath::render_table(label_header, &attributed)
}

/// Run `f` over `items` on a small pool of OS threads (each simulation is
/// an independent single-threaded world, so sweeps parallelize across
/// cores); results come back in input order.
pub fn parallel_sweep<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n.max(1));
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out = Mutex::new(out);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                out.lock().expect("sweep mutex")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("sweep mutex")
        .into_iter()
        .map(|r| r.expect("every sweep item computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let items: Vec<u64> = (0..20).collect();
        let out = parallel_sweep(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_empty() {
        let out: Vec<u64> = parallel_sweep(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(32), "32");
        assert_eq!(size_label(8192), "8K");
        assert_eq!(size_label(7680), "7680");
    }

    #[test]
    fn row_formats_all_values() {
        let r = row("x", &[1.0, 2.5]);
        assert!(r.contains("1.00") && r.contains("2.50"));
    }
}
