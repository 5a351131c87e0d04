//! Outcome labels as values: what each user-visible operation came to.
//!
//! The engine records one [`Label`] per operation and compares and
//! counts them as values. Each run renders its labels to
//! text once, where its result is built (`LoadRun`, `C1Run`, `S1Run`,
//! `FleetRun`), so the `parity` streams keep the exact text they always
//! had: `l:{offset}`, `r:{word}`, `n:ok`, `w:quota`, `r:err`, `n:lost`,
//! `out`, `reap:err`, `out:lost:err`, `busy`.

use crate::name::Name;

/// The operation a label reports on: its text's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `l`: a dynamic link.
    Link,
    /// `n`: a name-space resolution.
    Resolve,
    /// `w`: a file grow.
    Write,
    /// `r`: a word read.
    Read,
}

impl Op {
    fn prefix(self) -> &'static str {
        match self {
            Op::Link => "l:",
            Op::Resolve => "n:",
            Op::Write => "w:",
            Op::Read => "r:",
        }
    }
}

/// How an operation came out, where it carries no value. `Quota`,
/// `Full` and `Err` are the refusals both designs name alike; `Lost` is
/// a fleet reply that never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ok,
    Quota,
    Full,
    Err,
    Lost,
}

impl Status {
    /// A design error's status, from the name `mx_explore::Rig::refusal`
    /// gives it: `quota`, `full`, or none for any other error.
    pub(crate) fn of_refusal(refusal: Option<&str>) -> Status {
        match refusal {
            Some("quota") => Status::Quota,
            Some("full") => Status::Full,
            _ => Status::Err,
        }
    }

    fn text(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Quota => "quota",
            Status::Full => "full",
            Status::Err => "err",
            Status::Lost => "lost",
        }
    }
}

/// One user-visible outcome, 16 bytes. It renders to the text the
/// harness has always reported ([`Label::render`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Label {
    /// A link's offset or a word read: `l:{offset}`, `r:{word}`.
    Value(Op, u64),
    /// An outcome without a value: `n:ok`, `w:quota`, `r:err`, `l:lost`.
    Status(Op, Status),
    /// A session's end: `out`, or `reap` when abandoned, then a suffix
    /// for the file delete and one for the logout unless each was `Ok`:
    /// `out:err`, `out:lost:err`, `reap:err`.
    End {
        reap: bool,
        delete: Status,
        logout: Status,
    },
    /// The salvage retry budget ran out before the operation went
    /// through.
    Busy,
}

impl Label {
    /// The label of a grow that went through.
    pub(crate) const GROWN: Label = Label::Status(Op::Write, Status::Ok);

    /// Whether the label ends a session (`out…` or `reap…`).
    pub(crate) fn terminal(self) -> bool {
        matches!(self, Label::End { .. })
    }

    /// The label's text. The longest, `r:` and a 20-digit word, fits a
    /// [`Name`].
    pub(crate) fn render(self) -> String {
        let text = match self {
            Label::Value(op, v) => Name::new(op.prefix()).num(v),
            Label::Status(op, s) => Name::new(op.prefix()).push(s.text()),
            Label::End {
                reap,
                delete,
                logout,
            } => {
                let mut text = Name::new(if reap { "reap" } else { "out" });
                for s in [delete, logout] {
                    if s != Status::Ok {
                        text = text.push(":").push(s.text());
                    }
                }
                text
            }
            Label::Busy => Name::new("busy"),
        };
        String::from(text.as_str())
    }
}

/// A run's label stream as text, for its result.
pub(crate) fn render(labels: &[Label]) -> Vec<String> {
    labels.iter().map(|l| l.render()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_outcome_renders_to_the_text_the_harness_reported() {
        assert!(std::mem::size_of::<Label>() <= 16);
        let end = |reap, delete, logout| Label::End {
            reap,
            delete,
            logout,
        };
        use Status::{Err, Full, Lost, Ok, Quota};
        let table = [
            (Label::Value(Op::Link, 0), "l:0"),
            (Label::Value(Op::Link, u64::from(u32::MAX)), "l:4294967295"),
            (Label::Value(Op::Read, 0), "r:0"),
            (Label::Value(Op::Read, (1 << 36) - 1), "r:68719476735"),
            (Label::Value(Op::Read, u64::MAX), "r:18446744073709551615"),
            (Label::Status(Op::Resolve, Ok), "n:ok"),
            (Label::Status(Op::Write, Quota), "w:quota"),
            (Label::Status(Op::Write, Full), "w:full"),
            (Label::Status(Op::Read, Err), "r:err"),
            (Label::Status(Op::Resolve, Lost), "n:lost"),
            (end(false, Ok, Ok), "out"),
            (end(true, Ok, Ok), "reap"),
            (end(false, Err, Ok), "out:err"),
            (end(true, Ok, Err), "reap:err"),
            (end(false, Err, Err), "out:err:err"),
            (end(false, Lost, Ok), "out:lost"),
            (end(false, Lost, Err), "out:lost:err"),
            (Label::Busy, "busy"),
        ];
        for (label, text) in table {
            assert_eq!(label.render(), text, "{label:?}");
            let old_terminal = matches!(text.split(':').next(), Some("out" | "reap"));
            assert_eq!(label.terminal(), old_terminal, "{text}");
        }
        assert_eq!(Label::GROWN.render(), "w:ok");
        assert_eq!(
            render(&[Label::Busy, Label::GROWN]),
            vec!["busy".to_string(), "w:ok".to_string()]
        );
    }
}
