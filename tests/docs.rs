//! Documentation consistency checks: the contributor docs must not go
//! stale as the workspace grows.
//!
//! * every workspace crate (including the vendored stand-ins and the
//!   root package) is listed in `docs/architecture.md`, and every crate
//!   row there is a workspace member;
//! * every `paper:KEY` citation in EXPERIMENTS.md, DESIGN.md and
//!   `docs/*.md` names a value of the committed `BENCH_paper.json`, and
//!   every count printed before one equals the record's; EXPERIMENTS.md
//!   writes no measured time by hand;
//! * every relative link in `docs/*.md` and `README.md` points at a
//!   file that exists;
//! * every `stqc` subcommand and `--flag` mentioned anywhere in the
//!   docs exists in `stqc --help` — documentation for a CLI surface
//!   that was renamed or removed fails the suite.

use std::fs;
use std::path::{Path, PathBuf};
use stq_util::json::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `name = "..."` of a crate's Cargo.toml `[package]` section.
fn package_name(manifest: &Path) -> String {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=').unwrap_or(rest).trim();
                return rest.trim_matches('"').to_owned();
            }
        }
    }
    panic!("no package name in {}", manifest.display());
}

/// Directory-relative path + package name of every workspace member.
fn workspace_members() -> Vec<(String, String)> {
    let root = repo_root();
    let mut members = vec![("stq-suite".to_owned(), package_name(&root.join("Cargo.toml")))];
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        let mut entries: Vec<_> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        entries.sort();
        for path in entries {
            let rel = format!(
                "{group}/{}",
                path.file_name().expect("crate dir name").to_string_lossy()
            );
            members.push((rel, package_name(&path.join("Cargo.toml"))));
        }
    }
    members
}

#[test]
fn every_workspace_crate_is_listed_in_architecture_md() {
    let page = fs::read_to_string(repo_root().join("docs/architecture.md"))
        .expect("docs/architecture.md exists");
    let members = workspace_members();
    for (dir, package) in &members {
        assert!(
            page.contains(package.as_str()),
            "docs/architecture.md does not mention workspace crate `{package}` ({dir})"
        );
    }
    // The other way round: a crate-table row whose directory is not a
    // workspace member describes a crate that is gone.
    let rows: Vec<&str> = page
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .filter(|dir| dir.starts_with("crates/") || dir.starts_with("vendor/"))
        .collect();
    assert!(rows.len() >= 10, "expected crate rows, found {rows:?}");
    for dir in rows {
        assert!(
            members.iter().any(|(member, _)| member == dir),
            "docs/architecture.md has a row for `{dir}`, which is not a workspace member"
        );
    }
}

/// `docs/*.md` plus the named pages at the repository root, sorted.
fn pages_with(root_pages: &[&str]) -> Vec<PathBuf> {
    let root = repo_root();
    let mut pages: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .chain(root_pages.iter().map(|page| root.join(page)))
        .collect();
    pages.sort();
    pages
}

/// The value at the dotted path `key` of `record`.
fn record_value<'a>(record: &'a Json, key: &str) -> Option<&'a Json> {
    key.split('.').try_fold(record, |node, part| node.get(part))
}

#[test]
fn paper_record_citations_resolve_and_printed_counts_match() {
    // A cited value is written `paper:KEY` in backticks; a count (or a
    // verdict) printed from the record is written `**N** (` followed by
    // that citation and `)`, and N must be the record's value.
    let text = fs::read_to_string(repo_root().join("BENCH_paper.json"))
        .expect("BENCH_paper.json is committed");
    let record = Json::parse(text.trim()).expect("BENCH_paper.json is one JSON document");
    let mut cited = 0;
    let mut printed = 0;
    let mut wrong = Vec::new();
    for page in pages_with(&["EXPERIMENTS.md", "DESIGN.md"]) {
        let text = fs::read_to_string(&page).expect("page is readable");
        let name = page.file_name().expect("page name").to_string_lossy();
        for (at, _) in text.match_indices("`paper:") {
            let rest = &text[at + "`paper:".len()..];
            let key = &rest[..rest.find('`').expect("citation has a closing backtick")];
            cited += 1;
            let Some(value) = record_value(&record, key) else {
                wrong.push(format!("{name}: `paper:{key}` is not in BENCH_paper.json"));
                continue;
            };
            let Some(before) = text[..at].strip_suffix("** (") else {
                continue;
            };
            let shown = &before[before.rfind("**").map_or(0, |i| i + 2)..];
            printed += 1;
            let recorded = value
                .as_str()
                .map_or_else(|| value.to_string(), str::to_owned);
            if shown != recorded {
                wrong.push(format!(
                    "{name}: prints **{shown}** for `paper:{key}`, the record has {recorded}"
                ));
            }
        }
    }
    assert!(
        cited >= 50 && printed >= 30,
        "expected the docs to cite the record: {cited} citation(s), {printed} printed value(s)"
    );
    assert!(
        wrong.is_empty(),
        "stale record citations:\n{}",
        wrong.join("\n")
    );
}

/// Numbers followed by a time unit that no benchmark wrote: a `ms`/`µs`
/// figure, or seconds with a fraction. (The paper's bounds are whole
/// seconds, `< 1 s` and `< 30 s`.)
fn handwritten_times(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        let number = &tail[..end];
        let after = tail[end..].trim_start_matches([' ', '\u{a0}']);
        let unit_len = after
            .find(|c: char| !c.is_alphabetic())
            .unwrap_or(after.len());
        let unit = &after[..unit_len];
        if matches!(unit, "ms" | "µs" | "us") || (unit == "s" && number.contains('.')) {
            out.push(format!("{number} {unit}"));
        }
        rest = &tail[end..];
    }
    out
}

#[test]
fn experiments_md_writes_no_measured_time_by_hand() {
    let text = fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    assert_eq!(
        handwritten_times("took ~8 ms, then 0.002 s, < 1 s"),
        ["8 ms", "0.002 s"]
    );
    let found = handwritten_times(&text);
    assert!(
        found.is_empty(),
        "EXPERIMENTS.md quotes measured times; cite `paper:` keys instead: {found:?}"
    );
}

/// Extracts `](target)` link targets from markdown.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = markdown.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = markdown[i + 2..].find(')') {
                out.push(markdown[i + 2..i + 2 + end].to_owned());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn relative_links_in_docs_resolve() {
    let pages = pages_with(&["README.md"]);
    assert!(pages.len() >= 5, "expected docs pages, found {pages:?}");

    let mut broken = Vec::new();
    for page in &pages {
        let text = fs::read_to_string(page).expect("page is readable");
        let base = page.parent().expect("page has a directory");
        for target in link_targets(&text) {
            // External links, mailto, and intra-page anchors are out of
            // scope; so are rustdoc-style `[`Name`]` shorthands (those
            // never produce a `](...)` pair).
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path_part = target.split('#').next().expect("split is nonempty");
            if path_part.is_empty() {
                continue;
            }
            if !base.join(path_part).exists() {
                broken.push(format!("{}: {target}", page.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative links:\n{}", broken.join("\n"));
}

/// All `--flag`-shaped tokens in `text`, trimmed of trailing
/// punctuation.
fn flag_tokens(text: &str) -> Vec<String> {
    text.split_whitespace()
        .filter_map(|tok| {
            let tok = tok.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let rest = tok.strip_prefix("--")?;
            let mut chars = rest.chars();
            let first = chars.next()?;
            (first.is_ascii_lowercase() && chars.all(|c| c.is_ascii_lowercase() || c == '-'))
                .then(|| tok.to_owned())
        })
        .collect()
}

/// The subcommand names in `text`: every lowercase token directly
/// following the word `stqc` on the same line (`stqc --flag` spans name
/// a flag, not a subcommand, and are skipped).
fn subcommand_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for w in words.windows(2) {
            if w[0] != "stqc" && !w[0].ends_with("/stqc") {
                continue;
            }
            if w[1].starts_with('-') {
                continue;
            }
            let tok = w[1].trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            if !tok.is_empty() && tok.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                out.push(tok.to_owned());
            }
        }
    }
    out
}

/// The parts of a markdown page that talk about the CLI: inline code
/// spans and fenced code blocks (odd segments when splitting on
/// backticks) — prose mentioning a flag is always backticked in this
/// repo. Lines about other tools (cargo, clippy) are skipped.
fn cli_code_text(markdown: &str) -> String {
    let mut out = String::new();
    for (i, segment) in markdown.split('`').enumerate() {
        if i % 2 == 0 {
            continue;
        }
        let relevant = segment
            .lines()
            .filter(|l| !["cargo ", "rustc ", "clippy", "#!"].iter().any(|t| l.contains(t)));
        for line in relevant {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn documented_cli_surface_exists_in_help() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stqc"))
        .arg("--help")
        .output()
        .expect("stqc --help runs");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    let known_flags = flag_tokens(&help);
    let known_subcommands = subcommand_tokens(&help);
    assert!(
        known_subcommands.iter().any(|s| s == "prove") && known_flags.iter().any(|f| f == "--json"),
        "help output looks truncated:\n{help}"
    );

    let pages = pages_with(&["README.md"]);
    let mut stale = Vec::new();
    for page in &pages {
        let text = fs::read_to_string(page).expect("page is readable");
        let cli_text = cli_code_text(&text);
        for flag in flag_tokens(&cli_text) {
            if !known_flags.contains(&flag) {
                stale.push(format!("{}: flag {flag}", page.display()));
            }
        }
        for sub in subcommand_tokens(&cli_text) {
            if !known_subcommands.contains(&sub) {
                stale.push(format!("{}: subcommand `stqc {sub}`", page.display()));
            }
        }
    }
    stale.sort();
    stale.dedup();
    assert!(
        stale.is_empty(),
        "docs mention CLI surface missing from `stqc --help`:\n{}",
        stale.join("\n")
    );
}
