//! The census subject: a catalogue of supervisor modules.

/// Where a module's code lives, which determines whether an auditor must
/// read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Inside the innermost protection boundary ("ring zero programs").
    RingZero,
    /// In an outer supervisor ring, still part of the kernel for audit
    /// purposes.
    OuterRing,
    /// Running in a trusted process (e.g. the Answering Service).
    TrustedProcess,
    /// Ordinary user-domain code: outside the kernel, not audited.
    UserDomain,
}

impl Region {
    /// True if code in this region is part of the security kernel — the
    /// code "that could in principle compromise security".
    pub fn in_kernel(self) -> bool {
        !matches!(self, Region::UserDomain)
    }
}

/// Source language of a module, with the paper's measured conversion
/// behaviour: recoding assembly in PL/I shrinks source lines by slightly
/// more than a factor of two (while roughly doubling object code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// PL/I — the census's uniform measure.
    Pli,
    /// 6180 assembly (ALM).
    Assembly,
}

/// One module of the supervisor, as the census sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRecord {
    /// Module name.
    pub name: String,
    /// Which region the code lives in.
    pub region: Region,
    /// Source language.
    pub language: Language,
    /// Source lines as written.
    pub source_lines: u32,
    /// Words of generated object code (used for "% of object code"
    /// statistics).
    pub object_words: u32,
    /// Distinct entry points.
    pub entry_points: u32,
    /// Entry points callable from the user domain (gates).
    pub user_gates: u32,
    /// Free-form tags the transformations select on (e.g. `"linker"`,
    /// `"network"`, `"general-purpose-only"`).
    pub tags: Vec<String>,
}

impl ModuleRecord {
    /// True if the module carries `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// Source lines expressed in the census's uniform PL/I-equivalent
    /// measure: assembly modules count at the size they would have if
    /// recoded (source ÷ `shrink`, with the paper's factor of two).
    pub fn pli_equivalent_lines(&self, shrink_factor_permille: u32) -> u32 {
        match self.language {
            Language::Pli => self.source_lines,
            Language::Assembly => {
                (u64::from(self.source_lines) * u64::from(shrink_factor_permille) / 1000) as u32
            }
        }
    }
}

/// A complete census subject at a point in time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Catalogue {
    /// Label, e.g. "Multics, start of project (1974)".
    pub label: String,
    /// Every module.
    pub modules: Vec<ModuleRecord>,
}

impl Catalogue {
    /// An empty catalogue with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            modules: Vec::new(),
        }
    }

    /// Adds a module record.
    pub fn push(&mut self, m: ModuleRecord) {
        self.modules.push(m);
    }

    /// Iterates modules in a region.
    pub fn in_region(&self, region: Region) -> impl Iterator<Item = &ModuleRecord> {
        self.modules.iter().filter(move |m| m.region == region)
    }

    /// Total source lines in a region.
    pub fn source_lines_in(&self, region: Region) -> u32 {
        self.in_region(region).map(|m| m.source_lines).sum()
    }

    /// Total source lines that an auditor must read — everything in the
    /// kernel regions.
    pub fn kernel_source_lines(&self) -> u32 {
        self.modules
            .iter()
            .filter(|m| m.region.in_kernel())
            .map(|m| m.source_lines)
            .sum()
    }

    /// Total kernel entry points.
    pub fn kernel_entry_points(&self) -> u32 {
        self.modules
            .iter()
            .filter(|m| m.region.in_kernel())
            .map(|m| m.entry_points)
            .sum()
    }

    /// Kernel entry points callable by the user (gates).
    pub fn kernel_user_gates(&self) -> u32 {
        self.modules
            .iter()
            .filter(|m| m.region.in_kernel())
            .map(|m| m.user_gates)
            .sum()
    }

    /// Kernel source lines carrying a tag.
    pub fn kernel_lines_tagged(&self, tag: &str) -> u32 {
        self.modules
            .iter()
            .filter(|m| m.region.in_kernel() && m.has_tag(tag))
            .map(|m| m.source_lines)
            .sum()
    }

    /// Finds a module by name.
    pub fn find(&self, name: &str) -> Option<&ModuleRecord> {
        self.modules.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, region: Region, lang: Language, lines: u32) -> ModuleRecord {
        ModuleRecord {
            name: name.into(),
            region,
            language: lang,
            source_lines: lines,
            object_words: lines * 3,
            entry_points: 10,
            user_gates: 2,
            tags: vec![],
        }
    }

    #[test]
    fn kernel_counts_ring_zero_outer_ring_and_trusted() {
        let mut c = Catalogue::new("t");
        c.push(record("a", Region::RingZero, Language::Pli, 100));
        c.push(record("b", Region::OuterRing, Language::Pli, 50));
        c.push(record("c", Region::TrustedProcess, Language::Pli, 25));
        c.push(record("d", Region::UserDomain, Language::Pli, 1000));
        assert_eq!(c.kernel_source_lines(), 175);
        assert_eq!(c.kernel_entry_points(), 30);
        assert_eq!(c.kernel_user_gates(), 6);
    }

    #[test]
    fn pli_equivalent_halves_assembly() {
        let m = record("asm", Region::RingZero, Language::Assembly, 1000);
        assert_eq!(m.pli_equivalent_lines(500), 500);
        let p = record("pli", Region::RingZero, Language::Pli, 1000);
        assert_eq!(p.pli_equivalent_lines(500), 1000);
    }

    #[test]
    fn tagged_line_totals() {
        let mut c = Catalogue::new("t");
        let mut m = record("net", Region::RingZero, Language::Pli, 700);
        m.tags.push("network".into());
        c.push(m);
        c.push(record("other", Region::RingZero, Language::Pli, 300));
        assert_eq!(c.kernel_lines_tagged("network"), 700);
        assert_eq!(c.kernel_lines_tagged("nope"), 0);
    }

    #[test]
    fn find_by_name() {
        let mut c = Catalogue::new("t");
        c.push(record("x", Region::RingZero, Language::Pli, 1));
        assert!(c.find("x").is_some());
        assert!(c.find("y").is_none());
    }
}
