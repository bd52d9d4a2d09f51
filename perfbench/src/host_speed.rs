//! A fixed host-speed reference: a small discrete-event loop that uses
//! none of the simulator's code, so no change to the simulator moves it.
//!
//! It exercises what the simulator's hot paths do — a timer heap, boxed
//! closure dispatch, hash-map state and short-lived heap allocations —
//! so that its time follows the host's speed phases the way a unit's
//! time does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Events per reference run (about 30 ms on an unloaded 2-vCPU guest).
const EVENTS: u64 = 400_000;

/// Run the loop once; returns its host time in seconds.
pub fn run() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(events(EVENTS));
    t0.elapsed().as_secs_f64()
}

fn events(n: u64) -> u64 {
    let actors: Vec<Box<dyn Fn(u64) -> u64>> = (0..64u64)
        .map(|k| {
            Box::new(move |x: u64| x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k)) as _
        })
        .collect();
    let mut timers: BinaryHeap<Reverse<(u64, u64)>> =
        (0..1024u64).map(|i| Reverse((i * 7 % 1000, i))).collect();
    let mut state: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..n {
        let Some(Reverse((t, id))) = timers.pop() else { break };
        let v = actors[(id % 64) as usize](t ^ acc);
        acc = acc.wrapping_add(v);
        let slot = state.entry(id % 4096).or_default();
        slot.push(v);
        if slot.len() > 8 {
            slot.clear();
        }
        acc ^= *Box::new(v);
        timers.push(Reverse((t + 1 + v % 97, id.wrapping_add(v % 3))));
    }
    acc
}
