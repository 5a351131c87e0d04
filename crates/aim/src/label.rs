//! Sensitivity labels: levels, compartments, and the dominance lattice.

/// Maximum number of distinct compartments (bit positions in a
/// [`CompartmentSet`]).
pub const MAX_COMPARTMENTS: u32 = 64;

/// A linearly ordered sensitivity level (e.g. 0 = Unclassified,
/// 1 = Confidential, 2 = Secret, 3 = Top Secret).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Level(pub u8);

impl Level {
    /// The lowest level.
    pub const BOTTOM: Level = Level(0);
}

/// A set of need-to-know compartments, one bit per compartment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompartmentSet(u64);

impl CompartmentSet {
    /// The empty compartment set.
    pub const fn empty() -> Self {
        CompartmentSet(0)
    }

    /// Builds a set from a raw bit mask.
    pub const fn from_bits(bits: u64) -> Self {
        CompartmentSet(bits)
    }

    /// The raw bit mask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The set with compartment `i` added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_COMPARTMENTS`.
    pub fn with(self, i: u32) -> Self {
        assert!(i < MAX_COMPARTMENTS, "compartment {i} out of range");
        CompartmentSet(self.0 | (1 << i))
    }

    /// True if compartment `i` is a member.
    pub const fn contains(self, i: u32) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// True if every compartment of `other` is also in `self`.
    pub const fn is_superset(self, other: CompartmentSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Set union (the join in the compartment half-lattice).
    pub const fn union(self, other: CompartmentSet) -> Self {
        CompartmentSet(self.0 | other.0)
    }

    /// Set intersection (the meet).
    pub const fn intersection(self, other: CompartmentSet) -> Self {
        CompartmentSet(self.0 & other.0)
    }

    /// Number of compartments in the set.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A full AIM label: sensitivity level plus compartment set.
///
/// Labels form a lattice under [`Label::dominates`]: `a` dominates `b`
/// when `a.level >= b.level` **and** `a.compartments ⊇ b.compartments`.
/// Two labels can be incomparable (neither dominates), which is exactly
/// what makes compartments useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Label {
    /// Sensitivity level.
    pub level: Level,
    /// Need-to-know compartments.
    pub compartments: CompartmentSet,
}

impl Label {
    /// The lattice bottom: lowest level, no compartments. System-low.
    pub const BOTTOM: Label = Label {
        level: Level::BOTTOM,
        compartments: CompartmentSet::empty(),
    };

    /// Builds a label.
    pub const fn new(level: Level, compartments: CompartmentSet) -> Self {
        Label {
            level,
            compartments,
        }
    }

    /// True if `self` dominates `other` (may observe it, under simple
    /// security).
    pub fn dominates(self, other: Label) -> bool {
        self.level >= other.level && self.compartments.is_superset(other.compartments)
    }

    /// True if the labels are incomparable (neither dominates).
    pub fn incomparable(self, other: Label) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// The least upper bound of two labels.
    pub fn join(self, other: Label) -> Label {
        Label {
            level: self.level.max(other.level),
            compartments: self.compartments.union(other.compartments),
        }
    }

    /// The greatest lower bound of two labels.
    pub fn meet(self, other: Label) -> Label {
        Label {
            level: self.level.min(other.level),
            compartments: self.compartments.intersection(other.compartments),
        }
    }

    /// The label's stored form, as directory entries hold it: the level
    /// in bits 0–2 and compartments 0–23 in bits 3–26. `None` for a label
    /// the form cannot hold, with a level above 7 or a compartment above
    /// 23.
    pub const fn stored(self) -> Option<u64> {
        let (level, bits) = (self.level.0 as u64, self.compartments.bits());
        if level > 7 || bits >> 24 != 0 {
            return None;
        }
        Some(level | bits << 3)
    }

    /// The label a stored form holds, reading bits 0–26 only: the
    /// inverse of [`Label::stored`].
    pub const fn from_stored(bits: u64) -> Label {
        Label::new(
            Level((bits & 0x7) as u8),
            CompartmentSet::from_bits(bits >> 3 & 0xFF_FFFF),
        )
    }
}

impl core::fmt::Display for Label {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{}{{", self.level.0)?;
        let mut first = true;
        for i in 0..MAX_COMPARTMENTS {
            if self.compartments.contains(i) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{i}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(level: u8, bits: u64) -> Label {
        Label::new(Level(level), CompartmentSet::from_bits(bits))
    }

    #[test]
    fn dominance_requires_both_level_and_compartments() {
        assert!(l(2, 0b11).dominates(l(1, 0b01)));
        assert!(!l(2, 0b01).dominates(l(1, 0b10)), "missing compartment");
        assert!(!l(1, 0b11).dominates(l(2, 0b01)), "lower level");
        assert!(l(1, 0b01).dominates(l(1, 0b01)), "dominance is reflexive");
    }

    #[test]
    fn incomparable_labels_exist() {
        let a = l(2, 0b01);
        let b = l(1, 0b10);
        assert!(a.incomparable(b));
        assert!(b.incomparable(a));
        assert!(!a.incomparable(a));
    }

    #[test]
    fn join_is_least_upper_bound() {
        let a = l(2, 0b01);
        let b = l(1, 0b10);
        let j = a.join(b);
        assert!(j.dominates(a) && j.dominates(b));
        assert_eq!(j, l(2, 0b11));
    }

    #[test]
    fn meet_is_greatest_lower_bound() {
        let a = l(2, 0b011);
        let b = l(1, 0b110);
        let m = a.meet(b);
        assert!(a.dominates(m) && b.dominates(m));
        assert_eq!(m, l(1, 0b010));
    }

    #[test]
    fn bottom_is_dominated_by_everything() {
        for lv in 0..4 {
            for bits in [0b0, 0b1, 0b101] {
                assert!(l(lv, bits).dominates(Label::BOTTOM));
            }
        }
    }

    #[test]
    fn compartment_set_operations() {
        let s = CompartmentSet::empty().with(0).with(5);
        assert!(s.contains(0) && s.contains(5) && !s.contains(1));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.is_superset(CompartmentSet::empty()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compartment_index_bounds_checked() {
        let _ = CompartmentSet::empty().with(64);
    }

    #[test]
    fn stored_form_round_trips_exactly_what_it_can_hold() {
        for label in [Label::BOTTOM, l(7, 1 << 23), l(3, 0b1011), l(7, 0xFF_FFFF)] {
            assert_eq!(label.stored().map(Label::from_stored), Some(label));
        }
        for label in [
            l(8, 0),
            l(9, 0),
            l(0, 1 << 24),
            l(0, 1 << 30),
            l(7, 1 << 63),
        ] {
            assert_eq!(label.stored(), None, "{label}");
        }
    }

    #[test]
    fn display_shows_level_and_compartments() {
        assert_eq!(format!("{}", l(2, 0b101)), "L2{0,2}");
        assert_eq!(format!("{}", Label::BOTTOM), "L0{}");
    }
}
