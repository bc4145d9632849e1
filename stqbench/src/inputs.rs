//! Benchmark inputs. The corpus files are fixed; the seed picks which
//! file or qualifier each operation uses and generates the `atleast<k>`
//! qualifier definitions. The program under test only ever receives the
//! generated text.

use crate::rng::Rng;
use std::io;
use std::path::{Path, PathBuf};
use stq_corpus::{grep, taint};

/// One C-subset program the workloads check.
#[derive(Clone, Debug)]
pub struct CorpusFile {
    /// Stable name; the file on disk is `<name>.c`.
    pub name: &'static str,
    pub source: String,
    /// Checked with the flow-sensitive extension (the cast-free dfa).
    pub flow_sensitive: bool,
    /// Non-blank source lines.
    pub lines: usize,
}

impl CorpusFile {
    fn new(name: &'static str, source: String) -> CorpusFile {
        CorpusFile {
            name,
            lines: stq_cir::pretty::count_lines(&source),
            source,
            flow_sensitive: name == "dfa_direct",
        }
    }

    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.c", self.name))
    }
}

/// The nine corpus files, in a fixed order: grep's `dfa.c` at five
/// scales (572–9148 lines), its cast-free variant, and the three Table 2
/// programs.
pub const CORPUS: [&str; 9] = [
    "dfa_0.25x",
    "dfa_0.5x",
    "dfa_1x",
    "dfa_2x",
    "dfa_4x",
    "dfa_direct",
    "bftpd",
    "mingetty",
    "identd",
];

fn generate(name: &str) -> String {
    match name {
        "dfa_0.25x" => grep::grep_dfa_source_scaled(0.25),
        "dfa_0.5x" => grep::grep_dfa_source_scaled(0.5),
        "dfa_1x" => grep::grep_dfa_source_scaled(1.0),
        "dfa_2x" => grep::grep_dfa_source_scaled(2.0),
        "dfa_4x" => grep::grep_dfa_source_scaled(4.0),
        "dfa_direct" => grep::grep_dfa_source_direct(),
        "bftpd" => taint::bftpd_source(),
        "mingetty" => taint::mingetty_source(),
        "identd" => taint::identd_source(),
        _ => unreachable!("`{name}` is not in CORPUS"),
    }
}

/// Generates the corpus.
pub fn corpus() -> Vec<CorpusFile> {
    CORPUS
        .iter()
        .map(|n| CorpusFile::new(n, generate(n)))
        .collect()
}

/// Writes every corpus file into `dir`.
pub fn write_corpus(dir: &Path, files: &[CorpusFile]) -> io::Result<()> {
    for f in files {
        std::fs::write(f.path(dir), &f.source)?;
    }
    Ok(())
}

/// Reads the corpus [`write_corpus`] wrote.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<CorpusFile>> {
    CORPUS
        .iter()
        .map(|n| {
            let path = dir.join(format!("{n}.c"));
            Ok(CorpusFile::new(n, std::fs::read_to_string(path)?))
        })
        .collect()
}

/// How often `check_corpus` deals each file, per 100, in [`CORPUS`]
/// order. By checking cost the files rank identd, mingetty, bftpd, then
/// dfa at 0.25x, 0.5x, cast-free, 1x, 2x, 4x. The weights put the median
/// in the middle of the 0.5x dfa's share (40–60%) and p99 in the middle
/// of the 4x dfa's (98–100%), so neither sits on a boundary between two
/// files, where a small shift in the seeded mix would move it.
pub const CHECK_WEIGHTS: [u32; 9] = [10, 20, 15, 8, 2, 15, 10, 10, 10];

/// How often a `oneshot_cli` check deals each file, per 100. Checks
/// are half of its operations, so the 4x dfa is 2% of them: p99 falls in
/// the middle of its share, as in `check_corpus`.
pub const ONESHOT_CHECK_WEIGHTS: [u32; 9] = [12, 12, 15, 15, 4, 12, 10, 10, 10];

/// Index of the paper-scale dfa in [`corpus`].
pub const DFA_1X: usize = 2;
/// Indices of the Table 2 programs in [`corpus`].
pub const TABLE2: [usize; 3] = [6, 7, 8];

/// The paper's qualifier library, as `Registry::builtins` loads it.
pub const BUILTINS: [&str; 8] = [
    "pos",
    "neg",
    "nonzero",
    "nonnull",
    "untainted",
    "tainted",
    "unique",
    "unaliased",
];

/// The qualifiers shipped in `examples/qualifiers/extra.q`.
pub const EXTRA_Q: &str = include_str!("../../examples/qualifiers/extra.q");

/// The names [`EXTRA_Q`] defines.
pub const EXTRA_NAMES: [&str; 5] = ["nonneg", "digit", "boolean", "kernel", "user"];

/// §2.1.3's erroneous `pos`: `E1 - E2` where Figure 1 has `E1 * E2`.
pub const POS_SUB: &str = "
value qualifier pos_sub(int Expr E)
    case E of
        decl int Const C:
            C, where C > 0
      | decl int Expr E1, E2:
            E1 - E2, where pos_sub(E1) && pos_sub(E2)
      | decl int Expr E1:
            -E1, where neg(E1)
    invariant value(E) > 0
";

/// §2.2.3's erroneous `unique`: Figure 5 without `disallow L`.
pub const UNIQUE_LEAK: &str = "
ref qualifier unique_leak(T* LValue L)
    assign L NULL | new
    invariant value(L) == NULL ||
        (isHeapLoc(value(L)) &&
         forall T** P: *P == value(L) => P == location(L))
";

/// The two paper mutants' names.
pub const MUTANTS: [&str; 2] = ["pos_sub", "unique_leak"];

/// Thresholds are drawn from `-K..=K`.
pub const K: i64 = 999;

/// `atleast<k>`, or `atleastm<|k|>` for negative `k` (`-` is not legal
/// in a qualifier name).
pub fn atleast_name(k: i64) -> String {
    if k < 0 {
        format!("atleastm{}", -k)
    } else {
        format!("atleast{k}")
    }
}

/// The threshold a generated name encodes, if it is one.
pub fn atleast_threshold(name: &str) -> Option<i64> {
    if let Some(m) = name.strip_prefix("atleastm") {
        m.parse::<i64>().ok().map(|k| -k)
    } else {
        name.strip_prefix("atleast")?.parse().ok()
    }
}

/// A value qualifier whose rules guarantee `value(E) >= k` exactly when
/// `k >= 0`: a constant at least `k`, or the sum of two such values.
/// Linear arithmetic decides it; a product clause is left out because the
/// prover is incomplete for nonlinear arithmetic.
pub fn atleast_def(k: i64) -> String {
    let name = atleast_name(k);
    format!(
        "
value qualifier {name}(int Expr E)
    case E of
        decl int Const C:
            C, where C >= {k}
      | decl int Expr E1, E2:
            E1 + E2, where {name}(E1) && {name}(E2)
    invariant value(E) >= {k}
"
    )
}

/// `n` distinct thresholds in `-K..=K`.
pub fn thresholds(rng: &mut Rng, n: usize) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::with_capacity(n);
    while out.len() < n {
        let k = rng.below(2 * K as usize + 1) as i64 - K;
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// Every threshold in `-K..=K`, in seeded order: a pool to draw from
/// without replacement, so each generated definition is new.
pub fn threshold_pool(rng: &mut Rng) -> Vec<i64> {
    let mut pool: Vec<i64> = (-K..=K).collect();
    rng.shuffle(&mut pool);
    pool
}

/// The user library on top of the builtins: `extra.q`, the two paper
/// mutants, and one `atleast` definition per threshold.
pub fn library(ks: &[i64]) -> String {
    format!("{EXTRA_Q}\n{POS_SUB}\n{UNIQUE_LEAK}{}", atleast_library(ks))
}

/// Only the `atleast` definitions. A library a checked program is meant
/// to pass must leave out `extra.q`: its `kernel` qualifier restricts
/// every dereference in every program.
pub fn atleast_library(ks: &[i64]) -> String {
    ks.iter().map(|&k| atleast_def(k)).collect()
}

/// Every qualifier name a session with [`library`]`(ks)` holds.
pub fn library_names(ks: &[i64]) -> Vec<String> {
    BUILTINS
        .iter()
        .chain(EXTRA_NAMES.iter())
        .chain(MUTANTS.iter())
        .map(|s| s.to_string())
        .chain(ks.iter().map(|&k| atleast_name(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_their_threshold() {
        for k in [-999, -1, 0, 7, 999] {
            assert_eq!(atleast_threshold(&atleast_name(k)), Some(k));
        }
        assert_eq!(atleast_threshold("pos"), None);
        assert_eq!(atleast_name(-5), "atleastm5");
    }

    #[test]
    fn the_same_seed_gives_byte_identical_libraries() {
        let libs = |seed| {
            let mut rng = Rng::new(seed, "thresholds");
            (0..50)
                .map(|_| library(&thresholds(&mut rng, 4)))
                .collect::<String>()
        };
        assert_eq!(libs(3), libs(3));
        assert_ne!(libs(3), libs(4));
        let pool = |seed| threshold_pool(&mut Rng::new(seed, "pool"));
        assert_eq!(pool(3), pool(3));
        assert_ne!(pool(3), pool(4));
    }

    #[test]
    fn thresholds_are_distinct_and_in_range() {
        let mut rng = Rng::new(1, "t");
        for _ in 0..1000 {
            let ks = thresholds(&mut rng, 4);
            assert!(ks.iter().all(|k| (-K..=K).contains(k)));
            for (i, k) in ks.iter().enumerate() {
                assert!(!ks[..i].contains(k));
            }
        }
    }

    #[test]
    fn corpus_is_fixed_and_indexed() {
        let c = corpus();
        assert_eq!(c.len(), 9);
        assert_eq!(c[DFA_1X].name, "dfa_1x");
        assert_eq!(TABLE2.map(|i| c[i].name), ["bftpd", "mingetty", "identd"]);
        assert!(c.iter().filter(|f| f.flow_sensitive).count() == 1);
    }
}
