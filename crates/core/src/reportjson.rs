//! The JSON documents of reports and telemetry, one builder per schema.
//! `stqc --json`, the serve daemon's results and `stqc call` all build
//! their documents from these functions as [`Json`] values, printed by
//! `Json`'s one serializer; a surface only adds its own fields (see
//! [`with_lead`]), so the command line and the daemon cannot drift
//! apart. The schemas are documented in `docs/telemetry.md`, the serve
//! envelope around them in `docs/serving.md`.
//!
//! | schema | builder | used by |
//! |---|---|---|
//! | prover budget | [`budget_json`] | `stqc prove --json` |
//! | retry ladder | [`retry_json`] | `stqc prove --json` |
//! | `ProverStats` | [`prover_stats_json`] | every `stats` and `totals` object |
//! | `CheckStats` | [`check_stats_json`] | check bodies, `stqc tables --json` |
//! | one qualifier's report | [`qual_report_json`] | every `qualifiers` entry |
//! | check body | [`check_json`] | daemon `check`, `stqc check --json` |
//! | prove body | [`prove_json`] | daemon `prove`, `stqc prove --json` |
//! | proof-cache counters | [`cache_json`] | daemon `prove`/`stats`/`health`, `stqc prove --json` |
//!
//! Every `*_ms` field is a plain JSON number of milliseconds, rounded
//! to the microsecond ([`millis`]).

use std::time::Duration;
use stq_cir::parse::ParseError;
use stq_soundness::{
    Budget, ProofCache, ProverStats, QualReport, Resource, RetryPolicy, SoundnessReport, Verdict,
};
use stq_typecheck::{CheckResult, CheckStats};
use stq_util::json::Json;

/// `x` rounded to `places` decimal places, the precision a report field
/// carries.
pub fn decimals(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// A `Duration` as milliseconds rounded to the microsecond (`12.345`),
/// the unit of every `*_ms` field.
pub fn millis(d: Duration) -> Json {
    decimals(d.as_secs_f64() * 1000.0, 3)
}

/// The stable slug of an exhausted [`Resource`].
pub fn resource_slug(r: Resource) -> &'static str {
    match r {
        Resource::Rounds => "rounds",
        Resource::Instantiations => "instantiations",
        Resource::Decisions => "decisions",
        Resource::Clauses => "clauses",
        Resource::Time => "time",
        Resource::Cancelled => "cancelled",
        Resource::Injected => "injected",
    }
}

/// The stable slug of a [`Verdict`].
pub fn verdict_slug(v: Verdict) -> &'static str {
    match v {
        Verdict::Sound => "sound",
        Verdict::Unsound => "unsound",
        Verdict::NoInvariant => "no-invariant",
        Verdict::ResourceOut => "resource-out",
        Verdict::Crashed => "crashed",
        Verdict::Interrupted => "interrupted",
    }
}

/// `fields` followed by the members of the object `body`: how a surface
/// puts its own fields in front of a shared schema.
pub fn with_lead<const N: usize>(fields: [(&str, Json); N], body: Json) -> Json {
    let Json::Obj(members) = body else {
        unreachable!("every report body is an object")
    };
    Json::obj(
        fields
            .map(|(k, v)| (k.to_owned(), v))
            .into_iter()
            .chain(members),
    )
}

/// `{"max_attempts":..,"factor":..}`.
pub fn retry_json(r: RetryPolicy) -> Json {
    Json::obj([
        ("max_attempts", u64::from(r.attempt_cap()).into()),
        ("factor", u64::from(r.factor).into()),
    ])
}

/// The prover [`Budget`] object.
pub fn budget_json(b: &Budget) -> Json {
    Json::obj([
        ("max_rounds", b.max_rounds.into()),
        ("max_instantiations", b.max_instantiations.into()),
        ("max_clauses", b.max_clauses.into()),
        ("max_decisions", b.max_decisions.into()),
        ("timeout_ms", b.timeout.map(millis).into()),
    ])
}

/// The [`ProverStats`] telemetry object.
pub fn prover_stats_json(s: &ProverStats) -> Json {
    let triggers = s
        .instantiations_by_trigger
        .iter()
        .map(|(t, n)| (t.as_str(), Json::from(*n)));
    Json::obj([
        ("rounds", s.rounds.into()),
        ("instantiations", s.instantiations.into()),
        ("instantiations_by_trigger", Json::obj(triggers)),
        ("ematch_candidates", s.ematch_candidates.into()),
        ("decisions", s.decisions.into()),
        ("propagations", s.propagations.into()),
        ("conflicts", s.conflicts.into()),
        ("theory_checks", s.theory_checks.into()),
        ("merges", s.merges.into()),
        ("fm_eliminations", s.fm_eliminations.into()),
        ("clauses", s.clauses.into()),
        ("max_clauses", s.max_clauses.into()),
        ("cache_hits", s.cache_hits.into()),
        ("cache_misses", s.cache_misses.into()),
        ("cache_invalidations", s.cache_invalidations.into()),
        ("theory_reuses", s.theory_reuses.into()),
        ("interned_terms", s.interned_terms.into()),
        ("intern_hits", s.intern_hits.into()),
        ("wall_ms", millis(s.wall)),
    ])
}

/// The [`CheckStats`] telemetry object.
pub fn check_stats_json(s: &CheckStats) -> Json {
    Json::obj([
        ("dereferences", s.dereferences.into()),
        ("annotations", s.annotations.into()),
        ("casts", s.casts.into()),
        ("qualifier_errors", s.qualifier_errors.into()),
        ("printf_calls", s.printf_calls.into()),
        ("restrict_checks", s.restrict_checks.into()),
        ("match_attempts", s.match_attempts.into()),
        ("exprs_visited", s.exprs_visited.into()),
        ("case_applications", s.case_applications.into()),
        ("memo_hits", s.memo_hits.into()),
        ("memo_misses", s.memo_misses.into()),
        ("casts_instrumented", s.casts_instrumented.into()),
    ])
}

/// One qualifier's [`QualReport`]: verdict, per-obligation results with
/// countermodels and telemetry, and the per-qualifier totals.
pub fn qual_report_json(r: &QualReport) -> Json {
    let obligations = r.obligations.iter().map(|o| {
        Json::obj([
            ("description", o.description.as_str().into()),
            ("proved", o.proved.into()),
            ("skipped", o.skipped.into()),
            ("resource", o.resource.map(resource_slug).into()),
            ("crashed", o.crashed.as_deref().into()),
            ("attempts", u64::from(o.attempts).into()),
            (
                "countermodel",
                o.countermodel.iter().map(String::as_str).collect(),
            ),
            ("wall_ms", millis(o.duration)),
            ("stats", prover_stats_json(&o.stats)),
        ])
    });
    Json::obj([
        ("name", r.qualifier.to_string().into()),
        ("verdict", verdict_slug(r.verdict).into()),
        ("wall_ms", millis(r.duration)),
        ("obligations", obligations.collect()),
        ("totals", prover_stats_json(&r.totals())),
    ])
}

/// The check body: one checked program's `clean` flag, rendered syntax
/// errors and qualifier diagnostics, and its [`CheckStats`].
pub fn check_json(result: &CheckResult, syntax_errors: &[ParseError], source: &str) -> Json {
    Json::obj([
        (
            "clean",
            (result.is_clean() && syntax_errors.is_empty()).into(),
        ),
        (
            "syntax_errors",
            syntax_errors.iter().map(ToString::to_string).collect(),
        ),
        (
            "diagnostics",
            result.diags.iter().map(|d| d.render(source)).collect(),
        ),
        ("stats", check_stats_json(&result.stats)),
    ])
}

/// The prove body: run-level verdict and interruption counters, one
/// [`qual_report_json`] per qualifier, the run totals, and the `cache`
/// object the caller supplies (`null` when the run used none).
pub fn prove_json(report: &SoundnessReport, cache: Json) -> Json {
    Json::obj([
        ("all_sound", report.all_sound().into()),
        ("interrupted", report.interrupted().into()),
        ("skipped", report.skipped_count().into()),
        ("timed_out", report.timed_out_count().into()),
        ("step_out", report.step_out_count().into()),
        (
            "qualifiers",
            report.reports.iter().map(qual_report_json).collect(),
        ),
        ("totals", prover_stats_json(&report.totals)),
        ("cache", cache),
    ])
}

/// The proof cache's counters: size, lookup hits and misses (with the
/// hits adopted from a peer's journal), load-time invalidations, and
/// persists skipped for having nothing dirty.
pub fn cache_json(c: &ProofCache) -> Json {
    Json::obj([
        ("entries", c.len().into()),
        ("hits", c.hits().into()),
        ("misses", c.misses().into()),
        ("follow_hits", c.follow_hits().into()),
        ("invalidations", c.invalidations().into()),
        ("persist_skips", c.persist_skips().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millisecond_fields_keep_three_decimals() {
        assert_eq!(millis(Duration::from_micros(12_345)).to_string(), "12.345");
        assert_eq!(millis(Duration::from_nanos(12_300_400)).to_string(), "12.3");
        assert_eq!(millis(Duration::ZERO).to_string(), "0");
    }

    #[test]
    fn surfaces_lead_with_their_own_fields() {
        let doc = with_lead(
            [("command", "retry".into())],
            retry_json(RetryPolicy::none()),
        );
        assert_eq!(
            doc.to_string(),
            r#"{"command":"retry","max_attempts":1,"factor":2}"#
        );
    }

    #[test]
    fn qualifier_reports_carry_name_and_verdict() {
        let session = crate::Session::with_builtins();
        let report = session.prove_sound("pos").expect("pos is builtin");
        let v = Json::parse(&qual_report_json(&report).to_string()).expect("report json parses");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("pos"));
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("sound"));
    }
}
