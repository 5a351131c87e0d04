//! A pass-through schedule policy that timestamps choices.
//!
//! It always picks candidate 0 — exactly what the simulator does with no
//! policy installed — so it can observe a design call without steering it.
//! The benchmark checks that claim on every workload's first unit by
//! comparing the traced and untraced outputs byte for byte.

use mx_sync::{ChoicePoint, SchedulePolicy};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Host timestamps of one design call's choices at the watched point.
#[derive(Debug, Default)]
pub struct GapLog {
    /// When the first watched choice was made.
    pub first: Option<Instant>,
    last: Option<Instant>,
    /// Host nanoseconds between successive watched choices.
    pub gaps_ns: Vec<u64>,
    /// Watched choices made.
    pub choices: u64,
}

/// Which choice point a [`Stamp`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    Dispatch,
    Wire,
}

/// The benchmark's handle on a [`Stamp`]'s log, read once the call returns.
pub type Log = Rc<RefCell<GapLog>>;

/// The policy handed to the simulator.
#[derive(Debug)]
struct Stamp {
    watch: Watch,
    log: Log,
}

/// For a traced run, a pass-through policy watching `watch` and the log it
/// writes to; for an untraced run, nothing, so the simulator runs with no
/// policy installed.
pub fn install(traced: bool, watch: Watch) -> Option<(Box<dyn SchedulePolicy>, Log)> {
    traced.then(|| {
        let log = Log::default();
        let policy: Box<dyn SchedulePolicy> = Box::new(Stamp {
            watch,
            log: Rc::clone(&log),
        });
        (policy, log)
    })
}

impl SchedulePolicy for Stamp {
    fn choose(&mut self, point: ChoicePoint, _candidates: &[u32]) -> usize {
        let watched = matches!(
            (self.watch, point),
            (Watch::Dispatch, ChoicePoint::Dispatch) | (Watch::Wire, ChoicePoint::Wire)
        );
        if watched {
            let now = Instant::now();
            let mut log = self.log.borrow_mut();
            log.first.get_or_insert(now);
            if let Some(prev) = log.last {
                log.gaps_ns.push((now - prev).as_nanos() as u64);
            }
            log.last = Some(now);
            log.choices += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_sync::EcId;

    #[test]
    fn stamps_only_the_watched_point_and_always_picks_the_front() {
        assert!(install(false, Watch::Dispatch).is_none());
        let (mut policy, log) = install(true, Watch::Dispatch).unwrap();
        assert_eq!(policy.choose(ChoicePoint::Dispatch, &[3, 1]), 0);
        assert_eq!(policy.choose(ChoicePoint::Wakeup(EcId(0)), &[2, 5]), 0);
        assert_eq!(policy.choose(ChoicePoint::Wire, &[0, 4]), 0);
        assert_eq!(policy.choose(ChoicePoint::Dispatch, &[1, 3]), 0);
        let log = log.borrow();
        assert_eq!(log.choices, 2);
        assert_eq!(log.gaps_ns.len(), 1);
        assert!(log.first.is_some());
    }
}
