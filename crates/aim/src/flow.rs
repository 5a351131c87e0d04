//! Information-flow tracking for covert-channel experiments.
//!
//! The paper closes its zero-page accounting case study with a
//! confinement observation: "if a user tries to read from a page
//! containing all zeros, a zero containing page must be allocated, at
//! least temporarily, and the accounting measures must be updated. Thus a
//! read implicitly causes information to be written, perhaps on the other
//! side of a protection boundary, in violation of the confinement goal
//! (Lampson, 1973)."
//!
//! [`FlowTracker`] records *actual* information flows reported by
//! instrumented kernel paths (who wrote what as a consequence of whose
//! action) and checks each against the labels involved, so the experiment
//! can demonstrate that the accounting write is a real downward flow even
//! though every explicit access was granted.

use crate::label::Label;

/// A single observed flow: information moved from a source labelled
/// `from` into a sink labelled `to`, as a side effect of `cause`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEvent {
    /// Label of the domain the information came from.
    pub from: Label,
    /// Label of the domain the information landed in.
    pub to: Label,
    /// Human-readable description of the mechanism (e.g.
    /// "quota-cell used-page count update on implicit zero-page
    /// allocation"). Every instrumented path names its mechanism with a
    /// literal, so recording a flow builds no string.
    pub cause: &'static str,
}

impl FlowEvent {
    /// True if the flow is legal under the lattice: the sink's label must
    /// dominate the source's (information may only flow upward).
    pub fn is_lawful(&self) -> bool {
        self.to.dominates(self.from)
    }
}

/// Accumulates observed flows and separates the lawful from the covert.
#[derive(Debug, Clone, Default)]
pub struct FlowTracker {
    events: Vec<FlowEvent>,
}

impl FlowTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observed flow.
    pub fn observe(&mut self, from: Label, to: Label, cause: &'static str) {
        self.events.push(FlowEvent { from, to, cause });
    }

    /// All observed flows.
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// The flows that violate the lattice — the covert channels.
    pub fn violations(&self) -> impl Iterator<Item = &FlowEvent> {
        self.events.iter().filter(|e| !e.is_lawful())
    }

    /// Number of unlawful flows observed.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{CompartmentSet, Level};

    fn l(level: u8) -> Label {
        Label::new(Level(level), CompartmentSet::empty())
    }

    #[test]
    fn upward_flow_is_lawful() {
        let e = FlowEvent {
            from: l(0),
            to: l(2),
            cause: "read up-level copy",
        };
        assert!(e.is_lawful());
    }

    #[test]
    fn downward_flow_is_a_violation() {
        let mut t = FlowTracker::new();
        t.observe(l(2), l(0), "accounting side effect");
        t.observe(l(0), l(2), "legal publish");
        assert_eq!(t.violation_count(), 1);
        let v: Vec<_> = t.violations().collect();
        assert_eq!(v[0].cause, "accounting side effect");
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn incomparable_flow_is_also_a_violation() {
        let a = Label::new(Level(1), CompartmentSet::from_bits(0b01));
        let b = Label::new(Level(1), CompartmentSet::from_bits(0b10));
        let e = FlowEvent {
            from: a,
            to: b,
            cause: "cross-compartment",
        };
        assert!(!e.is_lawful());
    }
}
