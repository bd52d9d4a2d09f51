//! A fixed host-speed reference loop for the wall-clock harnesses.
//!
//! Raw host time measures the host as much as the code: the same binary
//! runs up to 2× slower in a slow phase of a shared machine, and a
//! baseline recorded on one host says little about another. Timing this
//! loop next to a measurement and dividing gives a speed-corrected
//! figure. The loop uses none of the simulator's code, so no change to
//! the simulator moves it, and it does the kind of work the simulator's
//! hot paths do — a timer queue, dynamic dispatch, hash-map state and
//! short-lived allocations — so it slows down with the host the way
//! they do.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Events per reference run (about 8 ms on a 2-vCPU guest).
pub const REFERENCE_EVENTS: u64 = 100_000;

/// The reference run's time on the host that recorded the committed
/// baselines; speed-corrected rates are rates scaled to this host speed.
pub const NOMINAL_REFERENCE_NS: f64 = 8.0e6;

/// Run the reference loop once; returns its host time in nanoseconds.
pub fn reference_ns() -> f64 {
    let start = Instant::now();
    black_box(reference_loop(black_box(REFERENCE_EVENTS)));
    start.elapsed().as_nanos() as f64
}

/// Host seconds at the nominal host speed of a measurement that took
/// `per_reference` times as long as the reference loop run next to it.
pub fn nominal_seconds(per_reference: f64) -> f64 {
    per_reference * NOMINAL_REFERENCE_NS / 1e9
}

fn reference_loop(events: u64) -> u64 {
    let handlers: Vec<Box<dyn Fn(u64) -> u64>> = (1..=32u64)
        .map(|k| Box::new(move |x: u64| (x ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as _)
        .collect();
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> =
        (0..512u32).map(|i| Reverse((u64::from(i) * 13 % 500, i))).collect();
    let mut state: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..events {
        let Some(Reverse((at, id))) = queue.pop() else { break };
        let v = handlers[id as usize % handlers.len()](at.wrapping_add(acc));
        let log = state.entry(id % 2048).or_default();
        log.push(v);
        if log.len() > 6 {
            log.clear();
        }
        acc = acc.rotate_left(7) ^ *Box::new(v);
        queue.push(Reverse((at + 1 + v % 61, id.wrapping_add((v % 5) as u32))));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_is_deterministic_and_timed() {
        assert_eq!(reference_loop(10_000), reference_loop(10_000));
        assert!(reference_ns() > 0.0);
        assert_eq!(nominal_seconds(1.0), NOMINAL_REFERENCE_NS / 1e9);
        assert_eq!(nominal_seconds(2.5), 2.5 * NOMINAL_REFERENCE_NS / 1e9);
    }
}
