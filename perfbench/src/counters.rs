//! The layers' own counters, read from outside after each simulation.

use std::ops::AddAssign;

use des::obs::{Metric, Registry};
use vscc::Vscc;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counter totals of one or more simulations (sums, so that the
        /// ratios derived from them weight every simulation by its work).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl AddAssign for Counters {
            fn add_assign(&mut self, o: Counters) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counters! {
    /// Executor polls (`Sim::engine_stats`).
    polls,
    /// Timers registered.
    timers_set,
    /// Tasks spawned.
    spawned,
    /// `scc.dN.mpb.reads`, summed over devices.
    mpb_reads,
    /// `scc.dN.mpb.writes`, summed over devices.
    mpb_writes,
    /// `scc.dN.cl1inv`, summed over devices.
    cl1inv,
    /// `pcie.linkN.{egress,ingress}.busy_cycles`, summed.
    link_busy,
    /// Link capacity in cycles: 2 directions × links × simulated cycles.
    link_span,
    /// `pcie.linkN.{egress,ingress}.bytes`, summed.
    link_bytes,
    /// `pcie.linkN.conduit.tlps`, summed.
    conduit_tlps,
    /// `rcce.poll.scans`.
    poll_scans,
    /// `rcce.send.lock_wait_cycles`.
    lock_wait,
    /// `host.routed_lines`.
    routed_lines,
    /// `host.vdma_ops`.
    vdma_ops,
    /// `host.commtask.dN.busy_cycles`, summed.
    commtask_busy,
    /// Commtask capacity in cycles: devices × simulated cycles.
    commtask_span,
    /// `host.swcache.hits`.
    swcache_hits,
    /// `host.swcache.misses`.
    swcache_misses,
    /// `host.wcb.merges`.
    wcb_merges,
    /// `host.wcb.flushes`.
    wcb_flushes,
}

fn counter(reg: &Registry, name: &str) -> u64 {
    match reg.get(name) {
        Some(Metric::Counter(c)) => c.get(),
        _ => 0,
    }
}

impl Counters {
    /// Read a finished system's counters and engine statistics.
    pub fn read(v: &Vscc) -> Self {
        let reg = v.metrics();
        let now = v.sim.now();
        let devices = v.devices.len() as u64;
        let per_device = |f: &dyn Fn(usize) -> String| -> u64 {
            (0..v.devices.len()).map(|d| counter(reg, &f(d))).sum()
        };
        let stats = v.sim.engine_stats();
        Counters {
            polls: stats.polls,
            timers_set: stats.timers_set,
            spawned: stats.spawned,
            mpb_reads: per_device(&|d| format!("scc.d{d}.mpb.reads")),
            mpb_writes: per_device(&|d| format!("scc.d{d}.mpb.writes")),
            cl1inv: per_device(&|d| format!("scc.d{d}.cl1inv")),
            link_busy: per_device(&|d| format!("pcie.link{d}.egress.busy_cycles"))
                + per_device(&|d| format!("pcie.link{d}.ingress.busy_cycles")),
            link_span: 2 * devices * now,
            link_bytes: per_device(&|d| format!("pcie.link{d}.egress.bytes"))
                + per_device(&|d| format!("pcie.link{d}.ingress.bytes")),
            conduit_tlps: per_device(&|d| format!("pcie.link{d}.conduit.tlps")),
            poll_scans: counter(reg, "rcce.poll.scans"),
            lock_wait: counter(reg, "rcce.send.lock_wait_cycles"),
            routed_lines: counter(reg, "host.routed_lines"),
            vdma_ops: counter(reg, "host.vdma_ops"),
            commtask_busy: per_device(&|d| format!("host.commtask.d{d}.busy_cycles")),
            commtask_span: devices * now,
            swcache_hits: counter(reg, "host.swcache.hits"),
            swcache_misses: counter(reg, "host.swcache.misses"),
            wcb_merges: counter(reg, "host.wcb.merges"),
            wcb_flushes: counter(reg, "host.wcb.flushes"),
        }
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
