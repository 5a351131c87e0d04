//! Names as values: the account, file, symbol and directory names the
//! harness hands the designs, built on the stack.
//!
//! A name is text the simulator passes across the gates; neither design
//! charges a cycle for how the host built it. So the harness builds each
//! one in a fixed buffer instead of formatting a `String` per operation.
//! [`Name`] derefs to `&str` and prints as `format!` printed the name it
//! replaces. An outcome label's text is built in one too
//! ([`crate::label::Label::render`]).

use std::fmt;
use std::ops::Deref;

/// Bytes of text a [`Name`] holds. With its length byte a name is 32
/// bytes, the entry codec's bound on a name. The longest the harness
/// builds, `mig>f` and a 20-digit index, is 25.
const CAPACITY: usize = 31;

/// A harness-built name or tree name, at most [`CAPACITY`] bytes of
/// ASCII.
#[derive(Clone, Copy)]
pub(crate) struct Name {
    len: u8,
    bytes: [u8; CAPACITY],
}

impl Name {
    /// A name holding `s`.
    pub(crate) fn new(s: &str) -> Self {
        Self {
            len: 0,
            bytes: [0; CAPACITY],
        }
        .push(s)
    }

    /// This name with `s` appended.
    ///
    /// # Panics
    ///
    /// If the result would exceed [`CAPACITY`] bytes.
    pub(crate) fn push(mut self, s: &str) -> Self {
        self.grow(s.len()).copy_from_slice(s.as_bytes());
        self
    }

    /// This name with `n` appended in decimal, as `format!("{n}")`
    /// prints it.
    ///
    /// # Panics
    ///
    /// If the result would exceed [`CAPACITY`] bytes.
    pub(crate) fn num(mut self, mut n: u64) -> Self {
        let digits = n.checked_ilog10().map_or(1, |l| l as usize + 1);
        for d in self.grow(digits).iter_mut().rev() {
            *d = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self
    }

    /// Lengthens the name by `n` bytes, which the caller fills.
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let at = usize::from(self.len);
        let end = at + n;
        assert!(
            end <= CAPACITY,
            "a harness name is at most {CAPACITY} bytes"
        );
        self.len = end as u8;
        &mut self.bytes[at..end]
    }

    pub(crate) fn as_str(&self) -> &str {
        // Built from whole `&str`s and ASCII digits, so always UTF-8.
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("whole strs and digits")
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// The indices the name helpers are checked at: each edge of a digit
/// count, and the largest index.
#[cfg(test)]
pub(crate) const NAME_INDICES: [usize; 8] = [0, 9, 10, 99, 100, 1023, 100_000, usize::MAX];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_fits_the_entry_codecs_bound_and_prints_its_text() {
        assert!(std::mem::size_of::<Name>() <= 32);
        let n = Name::new("mig>f").num(u64::MAX);
        assert_eq!(&*n, "mig>f18446744073709551615");
        assert_eq!(format!("{n}|{n:>27}"), {
            let s = n.to_string();
            format!("{s}|{s:>27}")
        });
        for v in NAME_INDICES {
            assert_eq!(&*Name::new("").num(v as u64), v.to_string());
        }
    }

    #[test]
    #[should_panic(expected = "a harness name is at most 31 bytes")]
    fn a_name_past_its_capacity_is_refused() {
        Name::new("0123456789abcdef").push("0123456789abcdef");
    }
}
