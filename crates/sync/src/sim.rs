//! Deterministic eventcounts for the single-threaded machine simulator.
//!
//! The virtual-processor manager needs `await`/`advance`/`ticket`
//! primitives whose wakeups it can observe and schedule deterministically.
//! [`EventTable`] owns every eventcount and sequencer in the (simulated)
//! permanently resident core; `advance` returns the identities of the
//! waiters that became runnable so the caller — and only the caller's
//! *scheduler*, never the advancing module — decides what runs next.
//!
//! The key Reed–Kanodia property is visible in the types: `advance`
//! takes no waiter identities, and the returned [`WaiterId`]s are opaque
//! tokens the scheduler registered, so the discoverer of an event learns
//! nothing about who was awaiting it.

use crate::policy::{ChoicePoint, FifoPolicy, SchedulePolicy};
use std::collections::BTreeMap;

/// Names an eventcount (or sequencer) within an [`EventTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EcId(pub u32);

/// An opaque token identifying a registered waiter (the virtual-processor
/// manager uses virtual-processor indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaiterId(pub u32);

#[derive(Debug, Clone, Default)]
struct EventCountState {
    value: u64,
    /// Waiters keyed by (threshold, waiter) so wakeups drain in threshold
    /// order deterministically.
    waiters: BTreeMap<(u64, WaiterId), ()>,
}

#[derive(Debug, Clone, Default)]
struct SequencerState {
    next: u64,
}

/// The table of all simulator eventcounts and sequencers.
///
/// Lives (conceptually) in permanently resident core: the modules that use
/// it depend only on the core-segment manager and the hardware, which is
/// what lets the virtual-processor manager sit at the bottom of the
/// dependency lattice.
#[derive(Debug, Clone, Default)]
pub struct EventTable {
    counts: Vec<EventCountState>,
    sequencers: Vec<SequencerState>,
}

impl EventTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new eventcount starting at zero.
    pub fn create(&mut self) -> EcId {
        self.counts.push(EventCountState::default());
        EcId(self.counts.len() as u32 - 1)
    }

    /// Creates a new sequencer starting at zero.
    pub fn create_sequencer(&mut self) -> EcId {
        self.sequencers.push(SequencerState::default());
        EcId(self.sequencers.len() as u32 - 1)
    }

    /// Reads the current value of an eventcount.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn read(&self, ec: EcId) -> u64 {
        self.counts[ec.0 as usize].value
    }

    /// Takes the next ticket from a sequencer.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was not created by this table.
    pub fn ticket(&mut self, seq: EcId) -> u64 {
        let s = &mut self.sequencers[seq.0 as usize];
        let t = s.next;
        s.next += 1;
        t
    }

    /// Registers `waiter` as awaiting `ec >= threshold`.
    ///
    /// Returns `true` if the condition already holds (the waiter must not
    /// block — this is the software analogue of the wakeup-waiting
    /// switch); otherwise the waiter is parked until a later `advance`
    /// crosses the threshold.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn await_value(&mut self, ec: EcId, threshold: u64, waiter: WaiterId) -> bool {
        let state = &mut self.counts[ec.0 as usize];
        if state.value >= threshold {
            return true;
        }
        state.waiters.insert((threshold, waiter), ());
        false
    }

    /// Withdraws a parked waiter (e.g. the process was destroyed).
    ///
    /// Returns `true` if the waiter was found and removed.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn cancel(&mut self, ec: EcId, waiter: WaiterId) -> bool {
        let state = &mut self.counts[ec.0 as usize];
        let keys: Vec<_> = state
            .waiters
            .keys()
            .filter(|(_, w)| *w == waiter)
            .copied()
            .collect();
        for k in &keys {
            state.waiters.remove(k);
        }
        !keys.is_empty()
    }

    /// Advances the eventcount by one and returns every waiter whose
    /// threshold is now met, in deterministic (threshold, id) order.
    ///
    /// The advancing module receives opaque tokens only; it hands them to
    /// the scheduler and learns nothing else about the waiting processes.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn advance(&mut self, ec: EcId) -> Vec<WaiterId> {
        self.advance_with(ec, &mut FifoPolicy)
    }

    /// [`EventTable::advance`] with the wakeup-drain order decided by a
    /// [`SchedulePolicy`].
    ///
    /// Every eligible waiter is released — the Reed–Kanodia guarantee is
    /// not negotiable — but the *order* in which they are handed back is
    /// a genuine scheduling freedom, and this is its choice point. The
    /// policy is consulted once per remaining eligible waiter (skipping
    /// singleton sets); [`crate::policy::FifoPolicy`] reproduces the
    /// plain `advance` order exactly.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn advance_with(&mut self, ec: EcId, policy: &mut dyn SchedulePolicy) -> Vec<WaiterId> {
        let state = &mut self.counts[ec.0 as usize];
        state.value += 1;
        let now = state.value;
        let mut eligible: Vec<WaiterId> = state
            .waiters
            .range(..=(now, WaiterId(u32::MAX)))
            .map(|((_, w), ())| *w)
            .collect();
        state.waiters.retain(|(t, _), ()| *t > now);
        let mut ready = Vec::with_capacity(eligible.len());
        while eligible.len() > 1 {
            let ids: Vec<u32> = eligible.iter().map(|w| w.0).collect();
            let idx = policy
                .choose(ChoicePoint::Wakeup(ec), &ids)
                .min(eligible.len() - 1);
            ready.push(eligible.remove(idx));
        }
        ready.extend(eligible);
        ready
    }

    /// Waiters whose threshold is *already* met but who are still
    /// parked — the lost-wakeup oracle. A correct table is empty here at
    /// all times: `advance` releases every eligible waiter atomically,
    /// and `await_value` refuses to park a satisfied one (the
    /// wakeup-waiting switch).
    pub fn eligible_parked(&self) -> Vec<(EcId, WaiterId, u64)> {
        let mut lost = Vec::new();
        for (i, state) in self.counts.iter().enumerate() {
            for ((threshold, w), ()) in state.waiters.range(..=(state.value, WaiterId(u32::MAX))) {
                lost.push((EcId(i as u32), *w, *threshold));
            }
        }
        lost
    }

    /// Whether `waiter` is parked on any eventcount in the table.
    ///
    /// A scheduler entity that is blocked but registered nowhere can
    /// never be woken — the stranded-waiter oracle uses this.
    pub fn is_registered(&self, waiter: WaiterId) -> bool {
        self.counts
            .iter()
            .any(|s| s.waiters.keys().any(|(_, w)| *w == waiter))
    }

    /// Number of waiters currently parked on an eventcount.
    ///
    /// # Panics
    ///
    /// Panics if `ec` was not created by this table.
    pub fn waiter_count(&self, ec: EcId) -> usize {
        self.counts[ec.0 as usize].waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_increments_and_read_observes() {
        let mut t = EventTable::new();
        let ec = t.create();
        assert_eq!(t.read(ec), 0);
        t.advance(ec);
        t.advance(ec);
        assert_eq!(t.read(ec), 2);
    }

    #[test]
    fn await_already_satisfied_does_not_park() {
        let mut t = EventTable::new();
        let ec = t.create();
        t.advance(ec);
        assert!(t.await_value(ec, 1, WaiterId(9)));
        assert_eq!(t.waiter_count(ec), 0);
    }

    #[test]
    fn advance_wakes_only_met_thresholds_in_order() {
        let mut t = EventTable::new();
        let ec = t.create();
        assert!(!t.await_value(ec, 1, WaiterId(3)));
        assert!(!t.await_value(ec, 1, WaiterId(1)));
        assert!(!t.await_value(ec, 2, WaiterId(2)));
        let woke = t.advance(ec);
        assert_eq!(
            woke,
            vec![WaiterId(1), WaiterId(3)],
            "threshold 1 in id order"
        );
        assert_eq!(t.waiter_count(ec), 1);
        let woke = t.advance(ec);
        assert_eq!(woke, vec![WaiterId(2)]);
        assert_eq!(t.waiter_count(ec), 0);
    }

    #[test]
    fn cancel_removes_a_parked_waiter() {
        let mut t = EventTable::new();
        let ec = t.create();
        t.await_value(ec, 5, WaiterId(7));
        assert!(t.cancel(ec, WaiterId(7)));
        assert!(!t.cancel(ec, WaiterId(7)));
        for _ in 0..5 {
            assert!(t.advance(ec).is_empty());
        }
    }

    #[test]
    fn sequencer_tickets_are_unique_and_ordered() {
        let mut t = EventTable::new();
        let s = t.create_sequencer();
        let tickets: Vec<_> = (0..5).map(|_| t.ticket(s)).collect();
        assert_eq!(tickets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn advance_with_fifo_matches_plain_advance() {
        let mut a = EventTable::new();
        let mut b = EventTable::new();
        for t in [&mut a, &mut b] {
            let ec = t.create();
            t.await_value(ec, 1, WaiterId(3));
            t.await_value(ec, 1, WaiterId(1));
            t.await_value(ec, 2, WaiterId(2));
        }
        assert_eq!(
            a.advance(EcId(0)),
            b.advance_with(EcId(0), &mut crate::policy::FifoPolicy)
        );
    }

    #[test]
    fn advance_with_policy_reorders_but_releases_everyone() {
        #[derive(Debug)]
        struct Last;
        impl crate::policy::SchedulePolicy for Last {
            fn choose(&mut self, _: crate::policy::ChoicePoint, c: &[u32]) -> usize {
                c.len() - 1
            }
        }
        let mut t = EventTable::new();
        let ec = t.create();
        t.await_value(ec, 1, WaiterId(0));
        t.await_value(ec, 1, WaiterId(1));
        t.await_value(ec, 1, WaiterId(2));
        let woke = t.advance_with(ec, &mut Last);
        assert_eq!(woke, vec![WaiterId(2), WaiterId(1), WaiterId(0)]);
        assert_eq!(t.waiter_count(ec), 0, "order changed, exactness did not");
    }

    #[test]
    fn out_of_range_policy_choice_is_clamped() {
        #[derive(Debug)]
        struct Wild;
        impl crate::policy::SchedulePolicy for Wild {
            fn choose(&mut self, _: crate::policy::ChoicePoint, _: &[u32]) -> usize {
                usize::MAX
            }
        }
        let mut t = EventTable::new();
        let ec = t.create();
        t.await_value(ec, 1, WaiterId(0));
        t.await_value(ec, 1, WaiterId(1));
        assert_eq!(t.advance_with(ec, &mut Wild).len(), 2);
    }

    #[test]
    fn eligible_parked_flags_only_lost_wakeups() {
        let mut t = EventTable::new();
        let ec = t.create();
        t.await_value(ec, 2, WaiterId(5));
        assert!(t.eligible_parked().is_empty(), "threshold not met yet");
        assert!(t.is_registered(WaiterId(5)));
        assert!(!t.is_registered(WaiterId(6)));
        t.advance(ec);
        t.advance(ec);
        assert!(
            t.eligible_parked().is_empty(),
            "a correct advance leaves no eligible waiter behind"
        );
    }

    #[test]
    fn distinct_eventcounts_are_independent() {
        let mut t = EventTable::new();
        let a = t.create();
        let b = t.create();
        t.await_value(a, 1, WaiterId(0));
        assert!(
            t.advance(b).is_empty(),
            "advancing b must not wake a's waiter"
        );
        assert_eq!(t.advance(a), vec![WaiterId(0)]);
    }
}
