//! The host's speed, measured by a fixed calibration slice.
//!
//! On a shared host the speed of every instruction drifts by a third or
//! more over minutes, with no steal time to show for it, so raw host
//! seconds of the same work differ from run to run by more than any change
//! worth gating. The benchmark therefore runs a calibration slice between
//! units and expresses each unit's host time in *reference seconds*: its
//! raw seconds divided by how much slower the slice ran than
//! [`REFERENCE_SLICE_S`]. The slice is frozen code of this package alone:
//! no change to the simulator can speed it up or slow it down.
//!
//! The slice has two halves of about equal length, because interference
//! slows them by different amounts and the simulator does both kinds of
//! work: ordered-map lookups with small allocations through a few
//! megabytes, and register arithmetic. Across processes on the same host,
//! either half alone left up to three times the spread of the blend
//! (README: "Host speed").

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one slice takes on the reference host: a round figure just
/// under the fastest slice seen on a 2-vCPU KVM guest at 2.1 GHz with a
/// release build (16 ms). The reported host figures are what that host
/// would have measured.
const REFERENCE_SLICE_S: f64 = 0.015;

/// Host seconds of work per slice. Slices run in groups between units:
/// before a unit, one for each `SLICE_EVERY_S` since the last group ended,
/// so a long unit is bracketed by as many samples as short units would
/// have had over the same time. A slice samples a host whose speed swings
/// from one tenth of a second to the next, so one sample alone is a noisy
/// reading of the seconds around it.
const SLICE_EVERY_S: f64 = 0.1;

/// Most slices in one group: a four-second `crowd` unit gets ten on each
/// side, about 5% of the run's time.
const GROUP_MAX: usize = 10;

/// Map operations in one slice, and the key range they work over.
const MAP_OPS: u64 = 50_000;
const MAP_KEYS: u64 = 20_000;
/// Arithmetic steps in one slice: about as long as the map half.
const ARITH_STEPS: u64 = 7_000_000;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The map half: the same inserts, appends and removals every time.
fn churn(ops: u64) -> usize {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = black_box(0x5EED_u64);
    for i in 0..ops {
        x = mix(x);
        map.entry(x % MAP_KEYS).or_default().push(i);
        if x & 3 == 0 {
            map.remove(&(mix(x) % MAP_KEYS));
        }
    }
    map.len()
}

/// The arithmetic half.
fn arithmetic(steps: u64) -> u64 {
    (0..steps).fold(0u64, |acc, i| acc.wrapping_add(mix(black_box(i))))
}

/// Runs one slice and returns the host's slowdown against the reference
/// host: raw host seconds divided by it are reference seconds.
fn slice() -> f64 {
    let t = Instant::now();
    black_box(churn(MAP_OPS));
    black_box(arithmetic(ARITH_STEPS));
    t.elapsed().as_secs_f64() / REFERENCE_SLICE_S
}

/// Slices due once `elapsed_s` host seconds have passed since the last
/// group: one per [`SLICE_EVERY_S`], at most [`GROUP_MAX`].
pub fn due(elapsed_s: f64) -> usize {
    ((elapsed_s / SLICE_EVERY_S) as usize).min(GROUP_MAX)
}

/// Runs `n` slices back to back (at least one) and returns their mean
/// slowdown.
pub fn group(n: usize) -> f64 {
    let n = n.max(1);
    (0..n).map(|_| slice()).sum::<f64>() / n as f64
}

/// A group of slices, run just before timed unit `next` (or after the
/// last unit, when `next` is the unit count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Group {
    pub next: u64,
    pub slowdown: f64,
}

/// The slowdown around timed unit `unit`: the mean of the last group run
/// before it and the first run after it, or whichever of the two exists;
/// 1 with no groups at all.
pub fn slowdown_of(groups: &[Group], unit: u64) -> f64 {
    let before = groups.iter().rev().find(|g| g.next <= unit);
    let after = groups.iter().find(|g| g.next > unit);
    match (before, after) {
        (Some(b), Some(a)) => (b.slowdown + a.slowdown) / 2.0,
        (Some(g), None) | (None, Some(g)) => g.slowdown,
        (None, None) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_takes_the_groups_on_either_side() {
        let g = |next, slowdown| Group { next, slowdown };
        let groups = [g(0, 1.5), g(2, 2.5), g(3, 4.0)];
        assert_eq!(slowdown_of(&groups, 0), 2.0);
        assert_eq!(slowdown_of(&groups, 1), 2.0);
        assert_eq!(slowdown_of(&groups, 2), 3.25);
        assert_eq!(slowdown_of(&groups, 3), 4.0);
        assert_eq!(slowdown_of(&[g(1, 1.5)], 0), 1.5);
        assert_eq!(slowdown_of(&[], 0), 1.0);
    }

    #[test]
    fn slices_fall_due_with_time_up_to_a_cap() {
        assert_eq!(due(0.05), 0);
        assert_eq!(due(0.25), 2);
        assert_eq!(due(60.0), GROUP_MAX);
    }
}
