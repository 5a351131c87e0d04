//! Access control lists, and the two words a directory entry stores one
//! in. The kernel deliberately kept the old system's user-visible ACL
//! semantics, so both designs use this one type and this one codec.

use crate::ids::UserId;

/// A discretionary access right on a file or directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessRight {
    /// Read (for a directory: list / search).
    Read,
    /// Write (for a directory: add and remove entries).
    Write,
    /// Execute.
    Execute,
}

/// An access control list: `(user, rights)` terms. "Every file and
/// directory has its own access control list … access to a file is
/// determined entirely by the access control list for that file."
///
/// The first four terms, all a stored ACL holds ([`Acl::stored`]), are
/// kept inline, so decoding an entry's ACL ([`Acl::unpack`]) or building
/// an owner's ([`Acl::owner`]) never allocates. A longer ACL can still be
/// built, and [`Acl::stored`] refuses it.
#[derive(Clone, Default)]
pub struct Acl {
    terms: Terms,
}

/// One term: a user and its read, write and execute bits.
type Term = (UserId, [bool; 3]);

/// An ACL's terms in the order they were granted.
#[derive(Clone)]
enum Terms {
    /// At most [`ACL_TERMS`] terms; the first `len` are live.
    Inline { len: u8, terms: [Term; ACL_TERMS] },
    /// More terms than a stored ACL holds.
    Spilled(Vec<Term>),
}

impl Default for Terms {
    fn default() -> Self {
        Terms::Inline {
            len: 0,
            terms: [(UserId(0), [false; 3]); ACL_TERMS],
        }
    }
}

impl Terms {
    fn as_slice(&self) -> &[Term] {
        match self {
            Terms::Inline { len, terms } => &terms[..usize::from(*len)],
            Terms::Spilled(terms) => terms,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Term] {
        match self {
            Terms::Inline { len, terms } => &mut terms[..usize::from(*len)],
            Terms::Spilled(terms) => terms,
        }
    }

    fn push(&mut self, term: Term) {
        match self {
            Terms::Inline { len, terms } if usize::from(*len) < ACL_TERMS => {
                terms[usize::from(*len)] = term;
                *len += 1;
            }
            Terms::Inline { terms, .. } => {
                let mut spilled = terms.to_vec();
                spilled.push(term);
                *self = Terms::Spilled(spilled);
            }
            Terms::Spilled(terms) => terms.push(term),
        }
    }

    /// Removes `user`'s term, keeping the others in order.
    fn remove(&mut self, user: UserId) {
        match self {
            Terms::Inline { len, terms } => {
                let live = usize::from(*len);
                if let Some(at) = terms[..live].iter().position(|(u, _)| *u == user) {
                    terms.copy_within(at + 1..live, at);
                    *len -= 1;
                }
            }
            Terms::Spilled(terms) => terms.retain(|(u, _)| *u != user),
        }
    }
}

impl PartialEq for Acl {
    fn eq(&self, other: &Self) -> bool {
        self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for Acl {}

impl core::fmt::Debug for Acl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Acl")
            .field("terms", &self.terms.as_slice())
            .finish()
    }
}

impl Acl {
    /// An empty ACL (nobody has access).
    pub fn new() -> Self {
        Self::default()
    }

    /// An ACL granting one user full access.
    pub fn owner(user: UserId) -> Self {
        let mut acl = Self::new();
        acl.grant(
            user,
            &[AccessRight::Read, AccessRight::Write, AccessRight::Execute],
        );
        acl
    }

    /// Grants rights to a user (adds to any existing term).
    pub fn grant(&mut self, user: UserId, rights: &[AccessRight]) {
        let mut bits = [false; 3];
        for r in rights {
            bits[right_slot(*r)] = true;
        }
        self.add(user, bits);
    }

    /// Adds a term's rights to the user's term, or appends the term.
    fn add(&mut self, user: UserId, bits: [bool; 3]) {
        let terms = self.terms.as_mut_slice();
        match terms.iter_mut().find(|(u, _)| *u == user) {
            Some((_, have)) => {
                for (have, add) in have.iter_mut().zip(bits) {
                    *have |= add;
                }
            }
            None => self.terms.push((user, bits)),
        }
    }

    /// Revokes all rights from a user.
    pub fn revoke(&mut self, user: UserId) {
        self.terms.remove(user);
    }

    /// True if the user holds the right.
    pub fn permits(&self, user: UserId, right: AccessRight) -> bool {
        self.terms
            .as_slice()
            .iter()
            .find(|(u, _)| *u == user)
            .is_some_and(|(_, b)| b[right_slot(right)])
    }

    /// The two words a directory entry stores the ACL in: up to four
    /// terms, each user id in a 9-bit field of the first word and its
    /// rights in a 4-bit field of the second (read, write, execute, and a
    /// bit marking the term present). A real system stores ACLs of
    /// arbitrary length; four terms suffice for the experiments and keep
    /// the entry fixed-size. `None` for an ACL the form cannot hold:
    /// more than four terms, or a user id above 255. [`Acl::unpack`] is
    /// its inverse.
    pub fn stored(&self) -> Option<(u64, u64)> {
        let terms = self.terms.as_slice();
        if terms.len() > ACL_TERMS {
            return None;
        }
        let (mut users, mut rights) = (0, 0);
        for (i, (u, r)) in terms.iter().enumerate() {
            if u.0 > ACL_MAX_USER {
                return None;
            }
            users |= u64::from(u.0) << (i * 9);
            let bits = u64::from(r[0]) | u64::from(r[1]) << 1 | u64::from(r[2]) << 2;
            rights |= (bits | 0b1000) << (i * 4);
        }
        Some((users, rights))
    }

    /// The ACL [`Acl::stored`] stored in `users` and `rights`.
    pub fn unpack(users: u64, rights: u64) -> Self {
        let mut acl = Self::new();
        for i in 0..ACL_TERMS {
            let bits = rights >> (i * 4) & 0xF;
            if bits & 0b1000 != 0 {
                let user = UserId((users >> (i * 9) & u64::from(ACL_MAX_USER)) as u32);
                acl.add(user, [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0]);
            }
        }
        acl
    }
}

/// Terms a stored ACL holds.
const ACL_TERMS: usize = 4;

/// The highest user id a stored ACL holds.
const ACL_MAX_USER: u32 = 0xFF;

fn right_slot(r: AccessRight) -> usize {
    match r {
        AccessRight::Read => 0,
        AccessRight::Write => 1,
        AccessRight::Execute => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    const RIGHTS: [AccessRight; 3] = [AccessRight::Read, AccessRight::Write, AccessRight::Execute];

    /// Over seeded ACLs of 0–6 terms with user ids 0–300, the codec
    /// stores exactly the ACLs of at most four terms whose ids all fit
    /// in 8 bits, and what it stores unpacks to the same permissions for
    /// every user and right. One id in four is drawn from the edges, and
    /// one ACL built past four terms in two is revoked back to four at
    /// random users; floors make sure each edge was reached. The terms
    /// stay in grant order, as a `Vec` of terms kept them, whether they
    /// are held inline or spilled.
    #[test]
    fn the_codec_stores_exactly_what_fits_and_unpacks_the_same_permissions() {
        let mut rng = SplitMix64::new(0xAC1_C0DE);
        let (mut four, mut at_255, mut too_many, mut too_high) = (0, 0, 0, 0);
        let mut revoked_to_four = 0;
        for _ in 0..4_000 {
            let mut acl = Acl::new();
            let mut reference: Vec<Term> = Vec::new();
            for _ in 0..rng.below(7) {
                let rights: Vec<_> = RIGHTS.into_iter().filter(|_| rng.chance(1, 2)).collect();
                let user = match rng.below(4) {
                    0 => [0, ACL_MAX_USER, ACL_MAX_USER + 1, 300][rng.below(4) as usize],
                    _ => rng.below(301) as u32,
                };
                acl.grant(UserId(user), &rights);
                let bits = RIGHTS.map(|r| rights.contains(&r));
                match reference.iter_mut().find(|(u, _)| u.0 == user) {
                    Some((_, have)) => have.iter_mut().zip(bits).for_each(|(h, b)| *h |= b),
                    None => reference.push((UserId(user), bits)),
                }
            }
            let revoked = reference.len() > ACL_TERMS && rng.chance(1, 2);
            if revoked {
                while reference.len() > ACL_TERMS {
                    let (user, _) = reference.remove(rng.below(reference.len() as u64) as usize);
                    acl.revoke(user);
                }
            }
            assert_eq!(acl.terms.as_slice(), reference, "{acl:?}");
            let terms = reference.len();
            let top = reference.iter().map(|(u, _)| u.0).max().unwrap_or(0);
            let stored = acl.stored();
            assert_eq!(
                stored.is_some(),
                terms <= ACL_TERMS && top <= ACL_MAX_USER,
                "{acl:?}"
            );
            for user in (0..=300).map(UserId) {
                for right in RIGHTS {
                    let granted = reference
                        .iter()
                        .any(|(u, b)| *u == user && b[right_slot(right)]);
                    assert_eq!(acl.permits(user, right), granted, "{acl:?}");
                }
            }
            match stored {
                Some((users, rights)) => {
                    let back = Acl::unpack(users, rights);
                    for user in (0..=300).map(UserId) {
                        for right in RIGHTS {
                            assert_eq!(
                                back.permits(user, right),
                                acl.permits(user, right),
                                "{acl:?}: {user:?} {right:?}"
                            );
                        }
                    }
                    four += usize::from(terms == ACL_TERMS);
                    at_255 += usize::from(top == ACL_MAX_USER);
                    revoked_to_four += usize::from(revoked);
                }
                None if terms > ACL_TERMS => too_many += 1,
                None => too_high += 1,
            }
        }
        assert!(
            revoked_to_four >= 50,
            "{revoked_to_four} ACLs revoked back to four terms stored"
        );
        assert!(four >= 50, "{four} stored four-term ACLs");
        assert!(at_255 >= 50, "{at_255} stored ACLs holding id 255");
        assert!(too_many >= 50, "{too_many} refused for a fifth term");
        assert!(too_high >= 50, "{too_high} refused for an id above 255");
    }
}
