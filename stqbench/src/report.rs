//! Results: one workload's outcome, the benchmark definition in
//! `BENCHMARK.json`, the one-line result the single-workload mode ends
//! with, the suite document, and `compare`.

use crate::stats::quartiles;
use stq_util::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Result<Better, String> {
        match s {
            "lower" => Ok(Better::Lower),
            "higher" => Ok(Better::Higher),
            _ => Err(format!("`better` must be lower or higher, not `{s}`")),
        }
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    /// How many samples the value summarizes, where that matters.
    pub samples: Option<u64>,
}

/// One workload's result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub workload: String,
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations that failed, were refused, went unanswered, or answered
    /// wrongly.
    pub failed: u64,
    /// The subset of `failed` that answered wrongly.
    pub wrong: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

const MAX_FAILURE_MESSAGES: usize = 8;

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_owned(),
            ..Outcome::default()
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.wrong += 1;
            self.failure(message);
        }
    }

    /// Counts one operation that failed without a wrong answer: refused,
    /// unanswered, or an error response.
    pub fn refused(&mut self, message: String) {
        self.attempted += 1;
        self.failure(message);
    }

    fn failure(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &str, better: Better) {
        self.add_counted(name, value, unit, better, None);
    }

    pub fn add_counted(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        better: Better,
        samples: Option<u64>,
    ) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            better,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Adds the failure share, the end-to-end count every workload has.
    pub fn add_failed_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.add_counted(
            "failed_share",
            share,
            "ratio",
            Better::Lower,
            Some(self.attempted),
        );
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                    ("better", Json::Str(m.better.as_str().to_owned())),
                ];
                if let Some(n) = m.samples {
                    fields.push(("samples", Json::Num(n as f64)));
                }
                (m.name.clone(), obj(fields))
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("wrong", Json::Num(self.wrong as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let count = |key| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("outcome lacks `{key}`"))
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("outcome lacks `metrics`".to_owned());
        };
        let mut metrics = Vec::new();
        for (name, m) in members {
            let field = |key| {
                m.get(key)
                    .ok_or_else(|| format!("metric `{name}` lacks `{key}`"))
            };
            metrics.push(Metric {
                name: name.clone(),
                value: field("value")?
                    .as_f64()
                    .ok_or("metric value is not a number")?,
                unit: field("unit")?
                    .as_str()
                    .ok_or("metric unit is not a string")?
                    .to_owned(),
                better: Better::parse(field("better")?.as_str().unwrap_or(""))?,
                samples: m.get("samples").and_then(Json::as_u64),
            });
        }
        Ok(Outcome {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("outcome lacks `workload`")?
                .to_owned(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            wrong: count("wrong")?,
            failures: doc
                .get("failures")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect(),
            metrics,
        })
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share by which the median may worsen.
    pub bound: Option<f64>,
}

/// The benchmark definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// The definition this binary was built with.
pub fn spec() -> Spec {
    parse_spec(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key} entry lacks `{k}`"))
                };
                Ok(Declared {
                    name: s("name")?.to_owned(),
                    unit: s("unit")?.to_owned(),
                    better: Better::parse(s("better")?)?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json lacks `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect(),
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// The result line the single-workload mode ends with: exactly the
/// declared metrics, each from the first outcome that has it.
pub fn result_line(outcomes: &[Outcome], declared: &[Declared]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for d in declared {
        let m = outcomes
            .iter()
            .find_map(|o| o.get(&d.name))
            .ok_or_else(|| format!("no workload measured `{}`", d.name))?;
        if m.unit != d.unit {
            return Err(format!(
                "`{}` is in {}, declared in {}",
                d.name, m.unit, d.unit
            ));
        }
        metrics.push((
            d.name.clone(),
            obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    Ok(obj(vec![
        ("correct", Json::Bool(outcomes.iter().all(Outcome::correct))),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string())
}

/// Summarizes repeated runs: per workload, per metric, the median and
/// quartiles of the values. `traced` holds the traced run's outcomes, if
/// any, whose metrics are the per-layer numbers.
pub fn suite_document(
    seed: u64,
    runs: &[Vec<Outcome>],
    traced: &[Outcome],
    spec: &Spec,
    correct: bool,
) -> Json {
    let kind = |name: &str| {
        if name == "failed_share" || spec.end_to_end.iter().any(|d| d.name == name) {
            "end_to_end"
        } else {
            "per_layer"
        }
    };
    let mut workloads = Vec::new();
    for (wi, first) in runs
        .first()
        .map(Vec::as_slice)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let outcomes: Vec<&Outcome> = runs.iter().filter_map(|r| r.get(wi)).collect();
        let mut metrics = Vec::new();
        for m in &first.metrics {
            let values: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.get(&m.name).map(|x| x.value))
                .collect();
            let (q1, median, q3) = quartiles(&values);
            let mut fields = vec![
                ("kind", Json::Str(kind(&m.name).to_owned())),
                ("unit", Json::Str(m.unit.clone())),
                ("better", Json::Str(m.better.as_str().to_owned())),
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ];
            if let Some(n) = m.samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            metrics.push((m.name.clone(), obj(fields)));
        }
        let traced_metrics = traced
            .iter()
            .find(|t| t.workload == first.workload)
            .map(|t| t.to_json().get("metrics").cloned().unwrap_or(Json::Null))
            .unwrap_or(Json::Null);
        let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
        workloads.push((
            first.workload.clone(),
            obj(vec![
                (
                    "attempted",
                    Json::Num(outcomes.iter().map(|o| o.attempted).sum::<u64>() as f64),
                ),
                ("failed", Json::Num(failed as f64)),
                (
                    "failures",
                    Json::Arr(
                        outcomes
                            .iter()
                            .flat_map(|o| o.failures.iter().cloned().map(Json::Str))
                            .collect(),
                    ),
                ),
                ("metrics", Json::Obj(metrics)),
                ("traced", traced_metrics),
            ]),
        ));
    }
    obj(vec![
        ("benchmark", Json::Str("stqbench".to_owned())),
        ("correct", Json::Bool(correct)),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs.len() as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// How a metric moved between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread exceeds the bound, so the medians cannot
    /// show a move within it.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of one metric in one set of runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Side {
    /// The quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Judges `b` against `a`. The change counts as worse when its median is
/// worse by more than `bound` (a share of `a`'s median; 0 means any rise),
/// and better when it improves by more than the bound. When either side's
/// spread exceeds the bound the result is unresolved, unless every value
/// of one side beats every value of the other.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let separated = |x: &Side, y: &Side| {
        x.values
            .iter()
            .all(|&xv| y.values.iter().all(|&yv| gain(yv, xv) > 0.0))
    };
    if a.spread().max(b.spread()) > bound && bound > 0.0 {
        return if separated(b, a) {
            Verdict::Better
        } else if separated(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = gain(a.median, b.median);
    let limit = bound * a.median.abs();
    if change < -limit {
        Verdict::Worse
    } else if change > limit {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn side(m: &Json) -> Option<Side> {
    Some(Side {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        values: m
            .get("values")?
            .as_array()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// The `compare` table: one row per end-to-end metric per workload.
pub fn compare(a: &Json, b: &Json, spec: &Spec) -> Result<String, String> {
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(w)) => Ok(w.clone()),
        _ => Err("not a stqbench suite document (no `workloads`)".to_owned()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<13} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for (name, ma) in &wa {
        let Some((_, mb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = ma.get("metrics") else {
            continue;
        };
        for (metric, da) in metrics {
            if da.get("kind").and_then(Json::as_str) != Some("end_to_end") {
                continue;
            }
            let declared = spec.end_to_end.iter().find(|d| &d.name == metric);
            let (better, bound) = match declared {
                Some(d) => (d.better, d.bound.unwrap_or(0.0)),
                // failed_share may not rise at all.
                None => (Better::Lower, 0.0),
            };
            let db = mb.get("metrics").and_then(|m| m.get(metric));
            let (Some(sa), Some(sb)) = (side(da), db.and_then(side)) else {
                continue;
            };
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            let verdict = judge(&sa, &sb, better, bound);
            out.push_str(&format!(
                "{name:<13} {metric:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}\n",
                sa.median,
                sb.median,
                change * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn judge_applies_the_bound_and_the_spread() {
        let a = side(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let same = side(&[10.02, 9.95, 10.1, 10.0, 9.98]);
        let slower = side(&[11.5, 11.6, 11.4, 11.5, 11.55]);
        let faster = side(&[8.5, 8.6, 8.4, 8.5, 8.55]);
        assert_eq!(judge(&a, &same, Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(judge(&a, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.1), Verdict::Better);
        let noisy = side(&[5.0, 15.0, 10.0, 7.0, 13.0]);
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // Noisy, but every run of the change beats every run of the parent.
        let wide_fast = side(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(judge(&a, &wide_fast, Better::Lower, 0.1), Verdict::Better);
        // A zero bound: any rise is worse.
        let zero = side(&[0.0, 0.0, 0.0]);
        let one_failure = side(&[0.0, 0.01, 0.0]);
        assert_eq!(judge(&zero, &zero, Better::Lower, 0.0), Verdict::Unchanged);
        assert_eq!(
            judge(&zero, &side(&[0.01; 3]), Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&zero, &one_failure, Better::Lower, 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn outcomes_round_trip_through_json() {
        let mut o = Outcome::new("check_corpus");
        o.check(Ok(()));
        o.check(Err("wrong".to_owned()));
        o.refused("refused".to_owned());
        o.add_counted("latency_ms_p50", 1.25, "ms", Better::Lower, Some(2));
        o.add_failed_share();
        let back = Outcome::from_json(&Json::parse(&o.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, o);
        assert_eq!((o.attempted, o.failed, o.wrong), (3, 2, 1));
        assert!(!o.correct());
    }

    #[test]
    fn the_benchmark_definition_keeps_its_contract() {
        let spec = spec();
        assert!(spec.run_seconds >= 1 && spec.run_seconds <= 60);
        assert_eq!(
            spec.workloads,
            ["check_corpus", "prove_cold", "serve_mixed", "oneshot_cli"]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let max_bound = spec
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(max_bound),
            "set-up time has the largest bound"
        );
        for d in &spec.end_to_end {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn the_result_line_holds_exactly_the_declared_metrics() {
        let mut o = Outcome::new("w");
        o.check(Ok(()));
        o.add("a", 1.5, "ms", Better::Lower);
        o.add("b", 2.0, "count", Better::Higher);
        let declared = |name: &str, unit: &str| Declared {
            name: name.to_owned(),
            unit: unit.to_owned(),
            better: Better::Lower,
            bound: None,
        };
        let line = result_line(&[o.clone()], &[declared("a", "ms")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"}}}"#
        );
        assert!(result_line(&[o.clone()], &[declared("c", "ms")]).is_err());
        assert!(result_line(&[o], &[declared("a", "s")]).is_err());
    }
}
