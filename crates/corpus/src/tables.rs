//! The experiment harness: runs the extensible typechecker over the
//! corpus programs and produces the rows of the paper's Tables 1 and 2
//! (plus the §6.2 uniqueness summary). Every number is *measured* by the
//! checker; the corpus generators only fix the program shapes.

use crate::{grep, taint, uniq};
use std::fmt;
use std::time::{Duration, Instant};
use stq_cir::ast::Program;
use stq_cir::parse::parse_program;
use stq_cir::pretty::count_lines;
use stq_qualspec::Registry;
use stq_typecheck::check_program;
use stq_util::json::Json;

/// A registry containing only the named builtin qualifiers (the paper
/// runs one qualifier discipline per experiment).
pub fn registry_subset(names: &[&str]) -> Registry {
    let full = Registry::builtins();
    let mut out = Registry::new();
    for n in names {
        let def = full
            .get_by_name(n)
            .unwrap_or_else(|| panic!("unknown builtin qualifier `{n}`"))
            .clone();
        out.add(def).expect("builtin names are unique");
    }
    out
}

/// One measured experiment row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Program name.
    pub program: String,
    /// Non-blank source lines.
    pub lines: usize,
    /// Pointer dereferences (Table 1) — 0 where not applicable.
    pub dereferences: usize,
    /// `printf`-family calls (Table 2).
    pub printf_calls: usize,
    /// User-written qualifier annotations (library prototypes such as
    /// `printf`'s header signature are excluded, as in the paper).
    pub annotations: usize,
    /// Casts to qualified types.
    pub casts: usize,
    /// Remaining qualifier errors.
    pub errors: usize,
    /// Wall-clock checking time (the paper reports "under one second").
    pub check_time: Duration,
    /// The full checker telemetry behind the row's headline numbers.
    pub stats: stq_typecheck::CheckStats,
}

/// The row's table columns, in order: `program`, `lines`,
/// `dereferences`, `printf_calls`, `annotations`, `casts`, `errors`.
/// `stqc tables --json` and the paper record (`BENCH_paper.json`) both
/// build their rows from these.
pub fn row_columns(row: &Row) -> [(&'static str, Json); 7] {
    [
        ("program", row.program.as_str().into()),
        ("lines", row.lines.into()),
        ("dereferences", row.dereferences.into()),
        ("printf_calls", row.printf_calls.into()),
        ("annotations", row.annotations.into()),
        ("casts", row.casts.into()),
        ("errors", row.errors.into()),
    ]
}

/// Runs the checker over a program source under a qualifier subset and
/// measures a row.
pub fn measure(name: &str, source: &str, quals: &[&str]) -> Row {
    let registry = registry_subset(quals);
    let program = parse_program(source, &registry.names())
        .unwrap_or_else(|e| panic!("corpus program {name} failed to parse: {e}"));
    let start = Instant::now();
    let result = check_program(&registry, &program);
    let check_time = start.elapsed();
    assert!(
        !result.diags.has_errors(),
        "corpus program {name} has base type errors:\n{}",
        result.diags
    );
    let library_annots = library_annotations(&program, &registry);
    Row {
        program: name.to_owned(),
        lines: count_lines(source),
        dereferences: result.stats.dereferences,
        printf_calls: result.stats.printf_calls,
        annotations: result.stats.annotations - library_annots,
        casts: result.stats.casts,
        errors: result.stats.qualifier_errors,
        check_time,
        stats: result.stats,
    }
}

/// Annotations contributed by library prototypes (`printf`-family
/// signatures come from replacement headers in the paper's setup and are
/// not counted as user annotations).
fn library_annotations(program: &Program, registry: &Registry) -> usize {
    const LIBRARY: [&str; 7] = [
        "printf", "fprintf", "sprintf", "snprintf", "syslog", "vsyslog", "vprintf",
    ];
    program
        .protos
        .iter()
        .filter(|p| LIBRARY.contains(&p.name.as_str()))
        .map(|p| {
            p.sig
                .params
                .iter()
                .filter(|(_, ty)| mentions_qual(ty, registry))
                .count()
                + usize::from(mentions_qual(&p.sig.ret, registry))
        })
        .sum()
}

fn mentions_qual(ty: &stq_cir::ast::QualType, registry: &Registry) -> bool {
    ty.quals.iter().any(|q| registry.get(*q).is_some())
        || ty.pointee().is_some_and(|p| mentions_qual(p, registry))
}

/// Table 1: the nonnull experiment on the grep dfa corpus.
pub fn table1() -> Row {
    measure(
        "grep (dfa.c, dfa.h)",
        &grep::grep_dfa_source(),
        &["nonnull"],
    )
}

/// Table 2: the untainted experiment on bftpd, mingetty, and identd.
pub fn table2() -> Vec<Row> {
    vec![
        measure("bftpd", &taint::bftpd_source(), &["untainted", "tainted"]),
        measure(
            "mingetty",
            &taint::mingetty_source(),
            &["untainted", "tainted"],
        ),
        measure("identd", &taint::identd_source(), &["untainted", "tainted"]),
    ]
}

/// The §6.2 uniqueness experiment: `(row, validated references)`.
pub fn unique_experiment() -> (Row, usize) {
    let src = uniq::grep_unique_source();
    let row = measure("grep (dfa global)", &src, &["unique"]);
    (row, uniq::count_references(&src))
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(row: &Row) -> String {
    format!(
        "Table 1. Results from the nonnull experiment.\n\
         program:       {}\n\
         lines:         {}\n\
         dereferences:  {}\n\
         annotations:   {}\n\
         casts:         {}\n\
         errors:        {}\n\
         check time:    {:.3}s\n",
        row.program,
        row.lines,
        row.dereferences,
        row.annotations,
        row.casts,
        row.errors,
        row.check_time.as_secs_f64()
    )
}

/// Renders Table 2 in the paper's layout.
pub fn render_table2(rows: &[Row]) -> String {
    let mut cols = vec![
        "program:".to_owned(),
        "lines:".to_owned(),
        "printf calls:".to_owned(),
        "annotations:".to_owned(),
        "casts:".to_owned(),
        "errors:".to_owned(),
    ];
    for r in rows {
        cols[0] += &format!("  {:>9}", r.program);
        cols[1] += &format!("  {:>9}", r.lines);
        cols[2] += &format!("  {:>9}", r.printf_calls);
        cols[3] += &format!("  {:>9}", r.annotations);
        cols[4] += &format!("  {:>9}", r.casts);
        cols[5] += &format!("  {:>9}", r.errors);
    }
    let mut out = String::from("Table 2. Results from the untainted experiment.\n");
    for c in cols {
        out.push_str(&c);
        out.push('\n');
    }
    out
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} lines, {} derefs, {} printf calls, {} annotations, {} casts, {} errors",
            self.program,
            self.lines,
            self.dereferences,
            self.printf_calls,
            self.annotations,
            self.casts,
            self.errors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper() {
        let row = table1();
        assert_eq!(row.lines, grep::TABLE1_LINES);
        assert_eq!(row.dereferences, grep::TABLE1_DEREFS, "{row}");
        assert_eq!(row.annotations, grep::TABLE1_ANNOTATIONS, "{row}");
        assert_eq!(row.casts, grep::TABLE1_CASTS, "{row}");
        assert_eq!(row.errors, 0, "{row}");
    }

    #[test]
    fn table1_checking_is_under_a_second() {
        let row = table1();
        assert!(
            row.check_time.as_secs_f64() < 1.0,
            "checking took {:?}",
            row.check_time
        );
    }

    #[test]
    fn table2_reproduces_the_paper() {
        let rows = table2();
        let targets = [
            taint::BFTPD_TARGETS,
            taint::MINGETTY_TARGETS,
            taint::IDENTD_TARGETS,
        ];
        for (row, (lines, printfs, annots, casts, errors)) in rows.iter().zip(targets) {
            assert_eq!(row.lines, lines, "{row}");
            assert_eq!(row.printf_calls, printfs, "{row}");
            assert_eq!(row.annotations, annots, "{row}");
            assert_eq!(row.casts, casts, "{row}");
            assert_eq!(row.errors, errors, "{row}");
        }
    }

    #[test]
    fn unique_experiment_validates_all_references() {
        let (row, references) = unique_experiment();
        assert_eq!(references, uniq::UNIQUE_REFERENCES);
        assert_eq!(row.errors, 0, "{row}");
        assert_eq!(row.casts, 1, "{row}");
    }

    #[test]
    fn unique_violation_is_detected() {
        let row_src = uniq::grep_unique_violation_source();
        let registry = registry_subset(&["unique"]);
        let program = parse_program(&row_src, &registry.names()).unwrap();
        let result = check_program(&registry, &program);
        assert_eq!(result.stats.qualifier_errors, 1, "{}", result.diags);
    }

    #[test]
    fn rows_carry_checker_telemetry() {
        let row = table1();
        assert!(row.stats.exprs_visited > 0, "{row}");
        assert!(row.stats.memo_misses > 0, "{row}");
        assert_eq!(row.stats.casts, row.casts);
    }

    #[test]
    fn rendered_tables_contain_the_numbers() {
        let t1 = render_table1(&table1());
        assert!(t1.contains("2287"));
        assert!(t1.contains("1072"));
        let t2 = render_table2(&table2());
        assert!(t2.contains("bftpd"));
        assert!(t2.contains("134"));
    }
}
