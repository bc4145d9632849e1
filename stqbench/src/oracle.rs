//! Known answers. Every expected value comes from the paper (Tables 1
//! and 2, §2.1.3, §2.2.3, §4) or from EXPERIMENTS.md and the shipped
//! `extra.q`, never from running the code under test. A mismatch counts
//! as a failed operation, and a run with one exits nonzero.

use crate::inputs::{self, CorpusFile};

/// What a check of one corpus file must report; `None` fields are not
/// pinned by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckAnswer {
    pub errors: usize,
    pub dereferences: Option<usize>,
    pub annotations: Option<usize>,
    pub casts: Option<usize>,
    pub printf_calls: Option<usize>,
}

/// The counters one check reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    pub syntax_errors: usize,
    pub errors: usize,
    pub dereferences: usize,
    pub annotations: usize,
    pub casts: usize,
    pub printf_calls: usize,
}

impl From<&stq_core::CheckStats> for Observed {
    fn from(s: &stq_core::CheckStats) -> Observed {
        Observed {
            syntax_errors: 0,
            errors: s.qualifier_errors,
            dereferences: s.dereferences,
            annotations: s.annotations,
            casts: s.casts,
            printf_calls: s.printf_calls,
        }
    }
}

const fn clean() -> CheckAnswer {
    CheckAnswer {
        errors: 0,
        dereferences: None,
        annotations: None,
        casts: None,
        printf_calls: None,
    }
}

/// The known answer for a corpus file.
pub fn check_answer(file: &str) -> Option<CheckAnswer> {
    let taint = |errors, printf| CheckAnswer {
        errors,
        printf_calls: Some(printf),
        ..clean()
    };
    Some(match file {
        // Table 1: 2287 lines, 1072 dereferences, 114 annotations, 59
        // casts, 0 errors.
        "dfa_1x" => CheckAnswer {
            dereferences: Some(1072),
            annotations: Some(114),
            casts: Some(59),
            ..clean()
        },
        // The cast-style corpus is clean at every scale.
        "dfa_0.25x" | "dfa_0.5x" | "dfa_2x" | "dfa_4x" => clean(),
        // §8 flow sensitivity: the cast-free corpus has no casts and no
        // errors when checked flow-sensitively.
        "dfa_direct" => CheckAnswer {
            casts: Some(0),
            ..clean()
        },
        // Table 2: errors and printf calls.
        "bftpd" => taint(1, 134),
        "mingetty" => taint(0, 23),
        "identd" => taint(0, 21),
        _ => return None,
    })
}

/// Compares one check's counters with the file's known answer.
pub fn verify_check(file: &str, got: &Observed) -> Result<(), String> {
    let want = check_answer(file).ok_or_else(|| format!("no known answer for `{file}`"))?;
    let mut wrong = Vec::new();
    if got.syntax_errors != 0 {
        wrong.push(format!("{} syntax errors, want 0", got.syntax_errors));
    }
    if got.errors != want.errors {
        wrong.push(format!("{} errors, want {}", got.errors, want.errors));
    }
    let pinned = [
        ("dereferences", got.dereferences, want.dereferences),
        ("annotations", got.annotations, want.annotations),
        ("casts", got.casts, want.casts),
        ("printf calls", got.printf_calls, want.printf_calls),
    ];
    for (what, got, want) in pinned {
        if let Some(want) = want {
            if got != want {
                wrong.push(format!("{got} {what}, want {want}"));
            }
        }
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("check {file}: {}", wrong.join(", ")))
    }
}

/// The exit code `stqc check` must give a corpus file: 1 for findings.
pub fn check_exit(file: &str) -> Option<i32> {
    check_answer(file).map(|a| i32::from(a.errors > 0))
}

/// Line counts the inputs must have (Tables 1 and 2), so a corpus
/// generator that drifted from the paper is caught before measuring.
pub fn verify_corpus(files: &[CorpusFile]) -> Result<(), String> {
    let want = [
        ("dfa_1x", 2287),
        ("bftpd", 750),
        ("mingetty", 293),
        ("identd", 228),
    ];
    for (name, lines) in want {
        let got = files
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.lines)
            .ok_or_else(|| format!("corpus lacks `{name}`"))?;
        if got != lines {
            return Err(format!("corpus `{name}` has {got} lines, want {lines}"));
        }
    }
    Ok(())
}

/// A soundness verdict the oracle expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Sound,
    Unsound,
    NoInvariant,
}

impl Expect {
    /// The verdict's slug in the JSON report schema.
    pub fn slug(self) -> &'static str {
        match self {
            Expect::Sound => "sound",
            Expect::Unsound => "unsound",
            Expect::NoInvariant => "no-invariant",
        }
    }

    /// The exit code `stqc prove NAME` must give.
    pub fn exit_code(self) -> i32 {
        i32::from(self == Expect::Unsound)
    }
}

/// The known verdict for a qualifier name.
pub fn expected_verdict(name: &str) -> Option<Expect> {
    if let Some(k) = inputs::atleast_threshold(name) {
        // value(E) >= k survives E1 + E2 exactly when k >= 0.
        return Some(if k >= 0 {
            Expect::Sound
        } else {
            Expect::Unsound
        });
    }
    Some(match name {
        // §4: the value and reference qualifiers all prove sound; the
        // flow qualifiers declare no invariant.
        "pos" | "neg" | "nonzero" | "nonnull" | "unique" | "unaliased" => Expect::Sound,
        "untainted" | "tainted" => Expect::NoInvariant,
        // extra.q: "Each proves sound automatically"; `user` declares no
        // invariant.
        "nonneg" | "digit" | "boolean" | "kernel" => Expect::Sound,
        "user" => Expect::NoInvariant,
        // §2.1.3 and §2.2.3: the checker must reject both mutants.
        "pos_sub" | "unique_leak" => Expect::Unsound,
        _ => return None,
    })
}

/// Obligation counts from EXPERIMENTS.md's §4 table.
fn expected_obligations(name: &str) -> Option<usize> {
    Some(match name {
        "pos" | "neg" => 3,
        "nonzero" => 4,
        "nonnull" => 1,
        "unique" => 6,
        "unaliased" => 5,
        "untainted" | "tainted" => 0,
        _ => return None,
    })
}

/// The one obligation each mutant must fail (EXPERIMENTS.md: "exactly
/// the subtraction clause", "exactly the read-from-memory preservation
/// case").
fn mutant_failure(name: &str) -> Option<&'static str> {
    match name {
        "pos_sub" => Some("E1 - E2"),
        "unique_leak" => Some("a value read from memory"),
        _ => None,
    }
}

/// Compares one qualifier's soundness report with its known answer:
/// `verdict` is the schema slug, `failed` the descriptions of the
/// obligations that were not proved.
pub fn verify_report(
    name: &str,
    verdict: &str,
    obligations: usize,
    failed: &[&str],
) -> Result<(), String> {
    let want = expected_verdict(name).ok_or_else(|| format!("no known verdict for `{name}`"))?;
    if verdict != want.slug() {
        return Err(format!("`{name}` is {verdict}, want {}", want.slug()));
    }
    if let Some(n) = expected_obligations(name) {
        if obligations != n {
            return Err(format!("`{name}` has {obligations} obligations, want {n}"));
        }
    }
    if let Some(marker) = mutant_failure(name) {
        if failed.len() != 1 || !failed[0].contains(marker) {
            return Err(format!(
                "`{name}` failed {failed:?}, want exactly the `{marker}` obligation"
            ));
        }
    }
    Ok(())
}

/// The schema slug of an in-process verdict.
pub fn verdict_slug(v: stq_core::Verdict) -> &'static str {
    stq_core::reportjson::verdict_slug(v)
}

/// Checks an in-process soundness report against the oracle: every
/// qualifier in `names` has a report with the known answer.
pub fn verify_soundness(
    report: &stq_core::SoundnessReport,
    names: &[String],
) -> Result<(), String> {
    if report.reports.len() != names.len() {
        return Err(format!(
            "{} qualifier reports, want {}",
            report.reports.len(),
            names.len()
        ));
    }
    for (r, name) in report.reports.iter().zip(names) {
        let failed: Vec<&str> = r.failures().map(|o| o.description.as_str()).collect();
        let got = r.qualifier.as_str();
        if got != name {
            return Err(format!("report for `{got}` where `{name}` was expected"));
        }
        verify_report(name, verdict_slug(r.verdict), r.obligations.len(), &failed)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Observed {
        Observed {
            dereferences: 1072,
            annotations: 114,
            casts: 59,
            ..Observed::default()
        }
    }

    #[test]
    fn the_paper_answers_pass() {
        verify_check("dfa_1x", &table1()).unwrap();
        let bftpd = Observed {
            errors: 1,
            printf_calls: 134,
            ..Observed::default()
        };
        verify_check("bftpd", &bftpd).unwrap();
        verify_report("pos", "sound", 3, &[]).unwrap();
        verify_report("untainted", "no-invariant", 0, &[]).unwrap();
        verify_report("atleast0", "sound", 2, &[]).unwrap();
        verify_report("atleastm4", "unsound", 2, &["case clause 2"]).unwrap();
        verify_report(
            "pos_sub",
            "unsound",
            3,
            &["case clause 2 (`E1 - E2`) establishes `value(E) > 0`"],
        )
        .unwrap();
        assert_eq!(check_exit("bftpd"), Some(1));
        assert_eq!(check_exit("dfa_direct"), Some(0));
        assert_eq!(
            expected_verdict("atleastm4").map(Expect::exit_code),
            Some(1)
        );
    }

    #[test]
    fn a_wrong_answer_is_rejected() {
        let wrong_casts = Observed {
            casts: 58,
            ..table1()
        };
        assert!(verify_check("dfa_1x", &wrong_casts).is_err());
        let one_error = Observed {
            errors: 1,
            ..table1()
        };
        assert!(verify_check("dfa_1x", &one_error).is_err());
        let syntax = Observed {
            syntax_errors: 1,
            ..table1()
        };
        assert!(verify_check("dfa_1x", &syntax).is_err());
        assert!(verify_check("bftpd", &Observed::default()).is_err());
        assert!(verify_report("pos_sub", "sound", 3, &[]).is_err());
        assert!(verify_report("atleastm3", "sound", 2, &[]).is_err());
        assert!(verify_report("atleast3", "unsound", 2, &["x"]).is_err());
        assert!(verify_report("unique", "sound", 5, &[]).is_err());
        assert!(verify_report("unique_leak", "unsound", 6, &["a", "b"]).is_err());
        assert!(verify_report("pos_sub", "unsound", 3, &["case clause 1 (`C`)"]).is_err());
        assert!(verify_report("mystery", "sound", 1, &[]).is_err());
    }

    #[test]
    fn every_library_name_has_a_known_verdict() {
        for name in inputs::library_names(&[-3, 0, 5]) {
            assert!(expected_verdict(&name).is_some(), "{name}");
        }
        for file in inputs::corpus() {
            assert!(check_answer(file.name).is_some(), "{}", file.name);
        }
        verify_corpus(&inputs::corpus()).unwrap();
    }
}
