//! Engine-level regression tests: golden determinism of a fig6b-shaped
//! run, timer-wheel ordering/cancellation properties against a reference
//! heap, and the poll-watchdog clock-accounting fix.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use proptest::prelude::*;

use des::wheel::TimerWheel;
use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong;

// ---------------------------------------------------------------------
// Golden determinism
// ---------------------------------------------------------------------

/// FNV-1a 64-bit — enough to pin a byte stream without a hash dep.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fig6b_shaped_run() -> (String, String) {
    let (_, trace, reg) = pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 65_536, 2);
    (des::obs::chrome_trace_json(&[("fig6b", &trace)]), reg.snapshot().to_json())
}

/// Two in-process runs of the same fixed-seed workload must export
/// byte-identical traces and metrics, and both must match the committed
/// golden hashes. A hash change here means a *model* change — rerun the
/// calibration suite and update the constants deliberately, never to
/// silence the test.
#[test]
fn golden_fig6b_shaped_run_is_byte_identical_and_pinned() {
    let (trace_a, metrics_a) = fig6b_shaped_run();
    let (trace_b, metrics_b) = fig6b_shaped_run();
    assert_eq!(trace_a, trace_b, "trace export must not vary between identical runs");
    assert_eq!(metrics_a, metrics_b, "metrics export must not vary between identical runs");

    const GOLDEN_TRACE_FNV: u64 = 0xfef8_4418_e1a5_4fe4;
    const GOLDEN_METRICS_FNV: u64 = 0x72d8_584d_a44c_fb1b;
    assert_eq!(
        fnv1a(trace_a.as_bytes()),
        GOLDEN_TRACE_FNV,
        "trace golden drifted (got {:#018x}) — model change? re-check calibration first",
        fnv1a(trace_a.as_bytes())
    );
    assert_eq!(
        fnv1a(metrics_a.as_bytes()),
        GOLDEN_METRICS_FNV,
        "metrics golden drifted (got {:#018x}) — model change? re-check calibration first",
        fnv1a(metrics_a.as_bytes())
    );
}

// ---------------------------------------------------------------------
// Timer wheel vs reference heap
// ---------------------------------------------------------------------

/// Interpreted wheel operation; values are reduced modulo the legal
/// range at execution time.
fn run_ops(ops: &[(u8, u64, u64)]) {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    // Reference: straightforward min-heap of (deadline, seq) plus a
    // cancelled set, exactly the pre-wheel executor structure.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut cancelled: Vec<bool> = Vec::new();
    let mut ids = Vec::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut payload = 0u32;

    let pop_reference = |heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                         cancelled: &[bool]|
     -> Option<(u64, u32)> {
        while let Some(Reverse((d, _, p))) = heap.pop() {
            if !cancelled[p as usize] {
                return Some((d, p));
            }
        }
        None
    };

    for &(op, a, b) in ops {
        match op % 3 {
            0 => {
                // Insert: offsets span level 0, upper levels, and the
                // overflow heap (beyond the 2^24-cycle wheel span).
                let deadline = now + a % 40_000_000;
                let id = wheel.insert(deadline, payload);
                heap.push(Reverse((deadline, seq, payload)));
                ids.push(id);
                cancelled.push(false);
                seq += 1;
                payload += 1;
            }
            1 => {
                // Cancel a previously inserted timer (maybe already
                // fired or already cancelled — both must return false).
                if !ids.is_empty() {
                    let pick = (b % ids.len() as u64) as usize;
                    let wheel_ok = wheel.cancel(ids[pick]);
                    // The reference heap holds exactly the live entries
                    // (cancels retain them out, pops remove them), so a
                    // cancel must succeed iff the entry is still there.
                    let ref_live = heap.iter().any(|Reverse((_, _, p))| *p as usize == pick);
                    assert_eq!(wheel_ok, ref_live, "cancel([{pick}]) disagreed with the reference");
                    if wheel_ok {
                        cancelled[pick] = true;
                        heap.retain(|Reverse((_, _, p))| *p as usize != pick);
                    }
                }
            }
            _ => {
                let got = wheel.pop_next();
                let want = pop_reference(&mut heap, &cancelled);
                assert_eq!(got, want, "pop_next ordering diverged");
                if let Some((d, _)) = got {
                    now = now.max(d);
                }
            }
        }
        assert_eq!(wheel.len(), heap.len(), "live-entry counts diverged");
    }

    // Drain both: every remaining live timer must fire in (deadline,
    // seq) order.
    loop {
        let got = wheel.pop_next();
        let want = pop_reference(&mut heap, &cancelled);
        assert_eq!(got, want, "drain ordering diverged");
        if got.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Any interleaving of inserts, cancels, and pops produces exactly
    /// the (deadline, seq)-FIFO order of the reference heap.
    #[test]
    fn wheel_matches_reference_heap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
    ) {
        run_ops(&ops);
    }

    /// Dense same-deadline bursts (the executor's common case: many
    /// tasks waking on one cycle) keep strict FIFO by sequence.
    #[test]
    fn wheel_same_deadline_bursts_stay_fifo(
        deadlines in prop::collection::vec(0u64..8, 1..80),
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        for (i, d) in deadlines.iter().enumerate() {
            wheel.insert(*d, i as u32);
        }
        let mut fired: Vec<(u64, u32)> = Vec::new();
        while let Some(x) = wheel.pop_next() {
            fired.push(x);
        }
        let mut want: Vec<(u64, u32)> =
            deadlines.iter().enumerate().map(|(i, d)| (*d, i as u32)).collect();
        want.sort_by_key(|&(d, i)| (d, i));
        prop_assert_eq!(fired, want);
    }
}

/// A cancelled timer never fires, frees its slot, and a stale handle
/// (same index, older generation) can't cancel the slot's new tenant.
#[test]
fn wheel_cancellation_is_exact() {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let a = wheel.insert(10, 0);
    let b = wheel.insert(10, 1);
    assert!(wheel.cancel(a), "live timer must cancel");
    assert!(!wheel.cancel(a), "double-cancel must refuse");
    // The tombstoned slot is reclaimed lazily; whether or not the next
    // insert reuses it, the old handle must stay dead.
    let c = wheel.insert(20, 2);
    assert!(!wheel.cancel(a), "stale handle must stay dead after slot reclamation");
    assert_eq!(wheel.pop_next(), Some((10, 1)));
    assert_eq!(wheel.pop_next(), Some((20, 2)));
    assert_eq!(wheel.pop_next(), None);
    assert!(!wheel.cancel(b), "fired timer must refuse cancellation");
    assert!(!wheel.cancel(c), "fired timer must refuse cancellation");
}

// ---------------------------------------------------------------------
// Poll-watchdog clock accounting
// ---------------------------------------------------------------------

/// With cancellable timers, a clean watchdog'd run no longer leaves the
/// losing watchdog race arm in the timer structure: the final
/// `sim.now()` equals the last in-app `r.now()` and no timers remain.
/// (Pre-wheel, the stale watchdog deadline dragged `sim.now()` forward,
/// hence the old "measure completion from in-app r.now()" caveat.)
#[test]
fn clean_watchdogged_run_leaves_clock_at_app_completion() {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .poll_watchdog(50_000_000) // generous: must never trip
        .build();
    let a = v.devices[0].global(scc::geometry::CoreId(0));
    let b = v.devices[1].global(scc::geometry::CoreId(0));
    let s = v.session_builder().participants(vec![a, b]).build();

    let app_end = Rc::new(Cell::new(0u64));
    let app_end2 = app_end.clone();
    s.run_app(move |r| {
        let app_end = app_end2.clone();
        async move {
            if r.id() == 0 {
                r.send(&vec![7u8; 4096], 1).await;
                let mut buf = vec![0u8; 4096];
                r.recv(&mut buf, 1).await;
            } else {
                let mut buf = vec![0u8; 4096];
                r.recv(&mut buf, 0).await;
                r.send(&buf, 0).await;
            }
            app_end.set(app_end.get().max(r.now()));
        }
    })
    .expect("watchdog must not trip on a healthy run");

    assert!(app_end.get() > 0, "the app must have recorded its completion time");
    assert_eq!(
        sim.now(),
        app_end.get(),
        "final sim.now() must equal the last in-app r.now(): no stale watchdog timers"
    );
    assert_eq!(sim.pending_timers(), 0, "watchdog race losers must be withdrawn");
}

// ---------------------------------------------------------------------
// Contended routing golden
// ---------------------------------------------------------------------

/// BT class S on 16 ranks split 8 + 8 over two devices under
/// `SimpleRouting`, fully traced, metered and audited: every sweep stage
/// sends lines both ways through the host daemon at once, so routed
/// round trips contend for the same SIF links and same-cycle timer ties
/// are common. The fig6b goldens are two-rank ping-pongs where such ties
/// are rare; this pin is the one that notices a reordering under
/// contention. Returns `(now, cycles, messages, routed_lines)` and the
/// FNV-1a hashes of the trace, metrics and audit exports.
fn contended_routing_run() -> ((u64, u64, u64, u64), [u64; 3]) {
    use des::obs::Registry;
    use des::trace::Category;
    use vscc_apps::npb::{run_bt, BtClass, BtConfig};

    std::thread::spawn(|| {
        let audit = des::audit::Audit::new(des::audit::DEFAULT_EPOCH_CYCLES);
        let guard = audit.install();
        let sim = Sim::new();
        let reg = Registry::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::SimpleRouting)
            .metrics_registry(&reg)
            .trace_categories(&Category::ALL)
            .build();
        audit.register_trace(v.trace());
        let s = v.session_builder().cores_per_device(8).build();
        let mut cfg = BtConfig::new(BtClass::S, 16);
        cfg.measured = 1;
        let res = run_bt(&s, &cfg).expect("contended routing BT");
        assert!(res.verified, "routed BT payloads must verify");
        drop(guard);
        // Contended for real: all eight device-0 ranks queue on its SIF.
        assert_eq!(reg.gauge("pcie.link0.egress.queue_depth").high_watermark(), 8);
        let trace = des::obs::chrome_trace_json(&[("bt", v.trace())]);
        let metrics = reg.snapshot().to_json();
        let counts = (sim.now(), res.cycles, res.messages, v.host.stats.routed_lines.get());
        (
            counts,
            [fnv1a(trace.as_bytes()), fnv1a(metrics.as_bytes()), fnv1a(audit.to_json().as_bytes())],
        )
    })
    .join()
    .expect("contended routing thread")
}

#[test]
fn contended_routing_run_is_pinned() {
    let (counts, hashes) = contended_routing_run();
    assert_eq!(
        counts,
        (26_558_256, 13_277_849, 1_536, 12_768),
        "(now, cycles, messages, routed_lines) drifted"
    );
    const GOLDEN_FNV: [u64; 3] =
        [0x3a32_c807_40e3_ca3f, 0x3491_5a7c_a155_6b4e, 0x4144_a224_35ea_3516];
    for (i, kind) in ["trace", "metrics", "audit"].into_iter().enumerate() {
        assert_eq!(
            hashes[i], GOLDEN_FNV[i],
            "{kind} export of the contended routing run drifted (got {:#018x})",
            hashes[i]
        );
    }
}

// ---------------------------------------------------------------------
// Step machines vs their async twins
// ---------------------------------------------------------------------

/// One task of a step-machine twin scenario: start time, hop list (a
/// hop below `LINKS` is a transfer on that link, any other a 0–2-cycle
/// delay), repeats of the hop list, and an interruption: 0 none, 1 a
/// racing `delay(at)`, 2 a racing [`Gate`] that a helper pokes at `at`
/// without opening it (a wake that must not step) and opens at `at + 7`.
type TwinTask = (u64, Vec<u8>, usize, (u8, u64));

/// A one-waiter gate that keeps the latest waker, as a channel does.
#[derive(Clone, Default)]
struct Gate {
    open: Rc<Cell<bool>>,
    waker: Rc<std::cell::RefCell<Option<std::task::Waker>>>,
}

impl Gate {
    fn poke(&self, open: bool) {
        self.open.set(open);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }

    async fn wait(self) {
        std::future::poll_fn(|cx| {
            if self.open.get() {
                return std::task::Poll::Ready(());
            }
            *self.waker.borrow_mut() = Some(cx.waker().clone());
            std::task::Poll::Pending
        })
        .await
    }
}

const LINKS: usize = 2;

/// Everything a twin run can be compared on.
#[derive(Debug, PartialEq)]
struct TwinOutcome {
    now: u64,
    stats: des::EngineStats,
    links: Vec<(u64, u64, u64)>,
    log: Vec<(usize, u64)>,
    pending_timers: usize,
    audit: String,
}

fn run_twin(tasks: &[TwinTask], as_steps: bool) -> TwinOutcome {
    use des::link::{Bandwidth, Link};
    use std::cell::RefCell;

    let audit = des::audit::Audit::new(64);
    let guard = audit.install();
    let sim = Sim::new();
    // 8-byte transfers occupy 8 cycles: completions tie constantly.
    let links: Rc<Vec<Link>> = Rc::new(
        (0..LINKS as u64).map(|l| Link::new(Bandwidth::cycles_per_byte(1, 1), 2 * l, 0)).collect(),
    );
    let log: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    for (id, (start, hops, lines, (kind, at))) in tasks.iter().cloned().enumerate() {
        let (s, links, log) = (sim.clone(), links.clone(), log.clone());
        let gate = Gate::default();
        if kind == 2 {
            let (s, gate) = (sim.clone(), gate.clone());
            sim.spawn(async move {
                s.delay(at).await;
                gate.poke(false);
                s.delay(7).await;
                gate.poke(true);
            });
        }
        sim.spawn(async move {
            s.delay(start).await;
            let hop = move |sim: &Sim, h: u8| match links.get(h as usize) {
                Some(link) => link.reserve(sim, 8),
                None => sim.now() + h as u64 % 3,
            };
            let work: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> = if as_steps {
                let (mut phase, mut left, log) = (0, lines, log.clone());
                Box::pin(s.steps(move |sim| {
                    if phase == hops.len() {
                        log.borrow_mut().push((id, sim.now()));
                        left -= 1;
                        phase = 0;
                    }
                    if left == 0 {
                        return None;
                    }
                    phase += 1;
                    Some(hop(sim, hops[phase - 1]))
                }))
            } else {
                let (s, log) = (s.clone(), log.clone());
                Box::pin(async move {
                    for _ in 0..lines {
                        for &h in &hops {
                            let until = hop(&s, h);
                            s.delay_until(until).await;
                        }
                        log.borrow_mut().push((id, s.now()));
                    }
                })
            };
            match kind {
                1 => drop(des::sync::race(work, s.delay(at)).await),
                2 => drop(des::sync::race(work, gate.wait()).await),
                _ => work.await,
            }
            log.borrow_mut().push((id, u64::MAX));
        });
    }
    sim.run().expect("twin run");
    drop(guard);
    let links =
        links.iter().map(|l| (l.total_bytes(), l.total_transfers(), l.busy_cycles())).collect();
    let log = log.borrow().clone();
    TwinOutcome {
        now: sim.now(),
        stats: sim.engine_stats(),
        links,
        log,
        pending_timers: sim.pending_timers(),
        audit: audit.to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// A step machine is indistinguishable from the `delay_until` loop
    /// it replaces: same audit export (every poll, timer arm/fire/cancel,
    /// wake and link grant, in order), same engine counters, same clock
    /// and link totals — with tasks contending for shared links, tied
    /// deadlines, zero-cycle waits, racing timeouts that drop machines
    /// mid-run and foreign wakes before a machine's deadline.
    #[test]
    fn step_machines_match_their_async_twins(
        tasks in prop::collection::vec(
            (0u64..6, prop::collection::vec(0u8..6, 1..6), 1usize..4, (0u8..3, 0u64..80)),
            1..7,
        ),
    ) {
        let stepped = run_twin(&tasks, true);
        let awaited = run_twin(&tasks, false);
        prop_assert_eq!(stepped.pending_timers, 0);
        prop_assert_eq!(stepped, awaited);
    }
}
