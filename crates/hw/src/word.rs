//! The 36-bit machine word.
//!
//! Multics ran on 36-bit hardware; every quantity the simulated machine
//! stores — data, descriptor words, page-table words — is a [`Word`].
//! We carry words in a `u64` and mask to 36 bits on construction so that
//! arithmetic overflow behaves like the real machine's truncation.

/// Mask selecting the low 36 bits of a `u64`.
pub const WORD_MASK: u64 = (1 << 36) - 1;

/// A 36-bit machine word.
///
/// The inner value is always `<= WORD_MASK`; constructors truncate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Word(u64);

impl Word {
    /// The all-zeros word.
    pub const ZERO: Word = Word(0);

    /// Builds a word, truncating the argument to 36 bits.
    pub const fn new(raw: u64) -> Self {
        Word(raw & WORD_MASK)
    }

    /// The raw 36-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// True if every bit of the word is zero.
    ///
    /// The Multics page-removal algorithm scans page contents for all-zero
    /// words to reclaim storage charges; this is the per-word predicate.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Wrapping 36-bit addition.
    pub const fn wrapping_add(self, other: Word) -> Word {
        Word((self.0 + other.0) & WORD_MASK)
    }

    /// Returns the word with the given bit (0 = least significant) set.
    pub const fn with_bit(self, bit: u32) -> Word {
        Word((self.0 | (1 << bit)) & WORD_MASK)
    }

    /// True if the given bit is set.
    pub const fn bit(self, bit: u32) -> bool {
        (self.0 >> bit) & 1 == 1
    }

    /// Extracts a bit field: `width` bits starting at `lo`.
    pub const fn field(self, lo: u32, width: u32) -> u64 {
        (self.0 >> lo) & ((1 << width) - 1)
    }

    /// Returns a copy with `width` bits starting at `lo` replaced by `value`.
    pub const fn with_field(self, lo: u32, width: u32, value: u64) -> Word {
        let mask = ((1u64 << width) - 1) << lo;
        Word(((self.0 & !mask) | ((value << lo) & mask)) & WORD_MASK)
    }
}

impl From<u64> for Word {
    fn from(raw: u64) -> Self {
        Word::new(raw)
    }
}

impl From<Word> for u64 {
    fn from(w: Word) -> Self {
        w.raw()
    }
}

impl core::fmt::Display for Word {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Octal is the native display radix for 36-bit machines.
        write!(f, "{:012o}", self.0)
    }
}

/// Characters in a stored name: the 6180 packs four 9-bit characters to
/// a word, and names (directory entries, linkage symbols) get eight.
pub const NAME_CHARS: usize = 32;

/// Words a stored name occupies.
pub const NAME_WORDS: usize = NAME_CHARS / 4;

/// True if `name` survives [`pack_name`] then [`unpack_name`] unchanged:
/// at most [`NAME_CHARS`] bytes, all ASCII, and no NUL (NUL ends a name).
pub fn name_fits(name: &str) -> bool {
    name.len() <= NAME_CHARS && name.bytes().all(|b| b != 0 && b.is_ascii())
}

/// Packs a name's bytes four to a word, NUL padded; bytes past
/// [`NAME_CHARS`] are dropped.
pub fn pack_name(name: &str) -> [Word; NAME_WORDS] {
    let mut words = [Word::ZERO; NAME_WORDS];
    for (i, b) in name.bytes().take(NAME_CHARS).enumerate() {
        let w = &mut words[i / 4];
        *w = Word::new(w.raw() | u64::from(b) << (i % 4 * 9));
    }
    words
}

/// Decodes a stored name: the characters up to the first NUL, each
/// 9-bit character read as its low eight bits.
pub fn unpack_name(words: &[Word; NAME_WORDS]) -> String {
    words
        .iter()
        .flat_map(|w| (0..4).map(move |c| (w.raw() >> (c * 9)) as u8))
        .take_while(|&b| b != 0)
        .map(char::from)
        .collect()
}

/// `unpack_name(words) == name`, compared in place without building the
/// string. A search that compares one name against many stored names
/// builds its [`NameKey`] once instead.
pub fn name_is(words: &[Word; NAME_WORDS], name: &str) -> bool {
    NameKey::new(name).matches(words)
}

/// A name packed once for comparison against stored names:
/// `NameKey::new(name).matches(words)` is `unpack_name(words) == name`.
///
/// The key holds the eight words a stored name must hold and a mask of
/// the bits that must equal them. A stored character is read as its low
/// eight bits, so the mask covers the low eight bits of each of the
/// name's characters and of the NUL that ends it (unless the name fills
/// all [`NAME_CHARS`]), and never a character's ninth bit. A name no
/// stored name decodes to — longer than [`NAME_CHARS`], or holding NUL or
/// a character above U+00FF — gets a key bit outside its mask, so it
/// matches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameKey {
    want: [u64; NAME_WORDS],
    mask: [u64; NAME_WORDS],
}

impl NameKey {
    const NEVER: NameKey = NameKey {
        want: [1, 0, 0, 0, 0, 0, 0, 0],
        mask: [0; NAME_WORDS],
    };

    /// Packs `name`.
    pub fn new(name: &str) -> Self {
        let mut key = NameKey {
            want: [0; NAME_WORDS],
            mask: [0; NAME_WORDS],
        };
        let mut len = 0;
        for c in name.chars() {
            let b = u64::from(c);
            if len == NAME_CHARS || b == 0 || b > 0xFF {
                return Self::NEVER;
            }
            key.want[len / 4] |= b << (len % 4 * 9);
            key.mask[len / 4] |= 0xFF << (len % 4 * 9);
            len += 1;
        }
        if len < NAME_CHARS {
            key.mask[len / 4] |= 0xFF << (len % 4 * 9);
        }
        key
    }

    /// True if the stored name `words` decodes to the key's name.
    pub fn matches(&self, words: &[Word; NAME_WORDS]) -> bool {
        let mut diff = 0;
        for ((w, want), mask) in words.iter().zip(&self.want).zip(&self.mask) {
            diff |= (w.raw() & mask) ^ want;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn name_codec_round_trips_every_name_that_fits() {
        for name in ["", "x", "alpha.pl1", &"q".repeat(NAME_CHARS)] {
            assert!(name_fits(name));
            assert_eq!(unpack_name(&pack_name(name)), name);
            assert!(name_is(&pack_name(name), name));
        }
        for name in [&"x".repeat(NAME_CHARS + 1), "café", "a\0b"] {
            assert!(!name_fits(name), "{name:?}");
            assert_ne!(unpack_name(&pack_name(name)), name, "{name:?}");
        }
    }

    /// The character-by-character comparison `name_is` used to make,
    /// kept as the reference [`NameKey`] is checked against.
    fn per_character(words: &[Word; NAME_WORDS], name: &str) -> bool {
        let mut want = name.chars();
        for w in words {
            for c in 0..4 {
                let b = (w.raw() >> (c * 9)) as u8;
                if b == 0 {
                    return want.next().is_none();
                }
                if want.next() != Some(char::from(b)) {
                    return false;
                }
            }
        }
        want.next().is_none()
    }

    /// `NameKey::matches`, `name_is` and the per-character reference
    /// agree with decoding on arbitrary stored words (NUL mid name, 9-bit
    /// characters ≥ 0x100, bytes ≥ 0x80), against names with Latin-1
    /// characters, a character above U+00FF, an embedded NUL, and
    /// lengths 32 and 33.
    #[test]
    fn name_is_matches_unpack_on_random_words() {
        let mut rng = SplitMix64::new(0x6e61_6d65);
        let (mut matches, mut full_length_matches) = (0, 0);
        for _ in 0..20_000 {
            let mut words = [Word::ZERO; NAME_WORDS];
            // One stored name in eight fills all 32 characters.
            let full = rng.below(8) == 0;
            let len = if full {
                NAME_CHARS
            } else {
                rng.range_usize(0, NAME_CHARS + 1)
            };
            for i in 0..len {
                let c = match rng.below(8) {
                    0 if !full => 0,                  // NUL mid name
                    1 => rng.range_u64(0x100, 0x200), // 9-bit, high bit set
                    2 => rng.range_u64(0x80, 0x100),  // non-ASCII byte
                    _ => rng.range_u64(b'a'.into(), u64::from(b'e') + 1),
                };
                words[i / 4] = Word::new(words[i / 4].raw() | c << (i % 4 * 9));
            }
            let decoded = unpack_name(&words);
            let mut name = decoded.clone();
            match rng.below(7) {
                0 => {}
                1 => name.push(char::from(b'a' + rng.below(5) as u8)),
                2 => {
                    name.pop();
                }
                3 => {
                    if let Some(c) = name.pop() {
                        let flipped = if c == 'a' { 'b' } else { 'a' };
                        name.push(flipped);
                    }
                }
                4 => {
                    const ALPHABET: [char; 5] = ['a', 'b', '\u{e9}', '\u{ff}', '\u{100}'];
                    name = (0..rng.below(4))
                        .map(|_| ALPHABET[rng.below(5) as usize])
                        .collect();
                }
                5 => {
                    let at = rng.range_usize(0, name.chars().count() + 1);
                    let (head, tail) =
                        name.split_at(name.char_indices().nth(at).map_or(name.len(), |(i, _)| i));
                    name = format!("{head}\0{tail}");
                }
                _ => {
                    let n = NAME_CHARS + rng.below(2) as usize;
                    name = name.chars().chain(std::iter::repeat('a')).take(n).collect();
                }
            }
            let expected = decoded == name;
            matches += usize::from(expected);
            full_length_matches += usize::from(expected && name.chars().count() == NAME_CHARS);
            let at = format!("{words:?} vs {name:?}");
            assert_eq!(per_character(&words, &name), expected, "reference: {at}");
            assert_eq!(NameKey::new(&name).matches(&words), expected, "key: {at}");
            assert_eq!(name_is(&words, &name), expected, "name_is: {at}");
        }
        assert!(
            matches > 1_000 && matches < 19_000,
            "both answers exercised"
        );
        assert!(full_length_matches > 100, "32-character names matched");
    }

    #[test]
    fn construction_truncates_to_36_bits() {
        let w = Word::new(u64::MAX);
        assert_eq!(w.raw(), WORD_MASK);
    }

    #[test]
    fn zero_detection() {
        assert!(Word::ZERO.is_zero());
        assert!(!Word::new(1).is_zero());
    }

    #[test]
    fn wrapping_add_wraps_at_36_bits() {
        let w = Word::new(WORD_MASK).wrapping_add(Word::new(1));
        assert!(w.is_zero());
    }

    #[test]
    fn bit_and_field_accessors_round_trip() {
        let w = Word::ZERO.with_field(10, 8, 0xAB).with_bit(35);
        assert_eq!(w.field(10, 8), 0xAB);
        assert!(w.bit(35));
        assert!(!w.bit(34));
        let cleared = w.with_field(10, 8, 0);
        assert_eq!(cleared.field(10, 8), 0);
        assert!(cleared.bit(35));
    }

    #[test]
    fn display_is_twelve_octal_digits() {
        assert_eq!(format!("{}", Word::new(0o777)), "000000000777");
    }
}
