//! End-to-end chaos drills (docs/robustness.md): real `stqc serve`
//! daemons behind a fault-injecting proxy, SIGKILLed mid-campaign, must
//! still give every request exactly one attributed, baseline-identical
//! answer, with the warm proof cache intact.
//!
//! The two bench-sized drills are ignored by default;
//! `cargo test --release --test chaos -- --ignored` runs them, and the
//! fleet drill writes `BENCH_chaos.json` at the repository root.

mod drill;
mod proxy;

use drill::number;
use stq_core::Endpoint;
use stq_util::json::Json;

fn flag(report: &Json, name: &str) -> Option<bool> {
    report.get(name).and_then(Json::as_bool)
}

#[test]
fn seeded_soak_resolves_every_request_identically_to_baseline() {
    let report = drill::single_daemon(3, 24, 3, false);
    assert_eq!(number(&report, &["count"]), 24);
    assert_eq!(number(&report, &["requests_resolved"]), 24);
    assert_eq!(number(&report, &["verdict_mismatches"]), 0);
    assert_eq!(number(&report, &["warm_cache_miss_delta"]), 0);
    assert!(
        number(&report, &["net_faults", "injected"]) > 0,
        "a soak with no injected faults proves nothing: {report}"
    );
}

#[test]
fn soak_with_worker_sigkill_recovers_and_stays_warm() {
    let report = drill::single_daemon(5, 30, 3, true);
    assert_eq!(number(&report, &["requests_resolved"]), 30);
    assert_eq!(number(&report, &["verdict_mismatches"]), 0);
    assert_eq!(number(&report, &["warm_cache_miss_delta"]), 0);
    assert_eq!(flag(&report, "worker_killed"), Some(true));
    assert!(
        number(&report, &["worker_restarts"]) >= 1,
        "the killed daemon must have been restarted: {report}"
    );
    assert!(
        number(&report, &["client", "reconnects"]) >= 1,
        "the kill must have been felt"
    );
}

#[test]
fn soak_with_daemon_sigkill_fails_over_to_a_warm_survivor() {
    // Two daemons share one proof-cache journal; daemon 0, the only one
    // ever proved at directly, is SIGKILLed mid-campaign with nothing to
    // restart it, and the survivor serves its proofs warm purely by
    // following the shared journal.
    let report = drill::fleet(11, 40, 4);
    assert_eq!(number(&report, &["requests_resolved"]), 40);
    assert_eq!(number(&report, &["verdict_mismatches"]), 0);
    assert_eq!(number(&report, &["daemons"]), 2);
    assert_eq!(flag(&report, "daemon_killed"), Some(true));
    assert_eq!(
        number(&report, &["warm_cache_miss_delta"]),
        0,
        "the survivor proved something cold; journal follow failed: {report}"
    );
    assert!(
        number(&report, &["follow_hits"]) >= 1,
        "no journal entry adopted: {report}"
    );
    assert!(
        number(&report, &["client", "failovers"]) >= 1,
        "killing a daemon must force at least one client failover: {report}"
    );
    assert!(
        number(&report, &["reloads"]) >= 1,
        "no hot reload on the survivor: {report}"
    );
    assert_eq!(flag(&report, "clean_shutdown"), Some(true), "{report}");
}

#[test]
fn tcp_chaos_soak_heals_through_wire_faults() {
    // The self-healing client, through a TCP-fronted proxy to a TCP
    // daemon: every call must still come back attributed and correct.
    let scratch = drill::Scratch::new("tcp");
    let daemon = drill::Daemon::tcp(&scratch);
    let plan = proxy::Plan::seeded(11, 24, 96);
    let proxy = proxy::Proxy::start(
        Endpoint::Tcp("127.0.0.1:0".into()),
        daemon.endpoint.clone(),
        plan,
    );
    let mut client = drill::client(5, 0, vec![proxy.endpoint()]);
    let mut verdicts: Vec<String> = Vec::new();
    for i in 0..20 {
        let out = match i % 3 {
            0 => client.call(
                "prove",
                Some(&Json::parse(r#"{"names":["pos"]}"#).unwrap()),
                None,
            ),
            1 => client.call("stats", None, None),
            _ => client.call(
                "check",
                Some(&Json::parse(r#"{"source":"int pos x = 3;"}"#).unwrap()),
                None,
            ),
        }
        .unwrap_or_else(|e| panic!("soak call {i} failed: {e}"));
        assert_eq!(
            out.doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "soak call {i}: {}",
            out.raw
        );
        if i % 3 == 0 {
            let result = out.doc.get("result").and_then(|r| r.get("all_sound"));
            verdicts.push(result.map(|v| v.to_string()).unwrap_or_default());
        }
    }
    assert!(
        verdicts.iter().all(|v| v == "true"),
        "verdicts must survive the faulted wire: {verdicts:?}"
    );
    assert!(
        daemon.shutdown(5),
        "the daemon must exit 0 on a requested shutdown"
    );
}

#[test]
#[ignore = "bench-sized; run by scripts/bench.sh"]
fn bench_worker_sigkill_soak() {
    drill::single_daemon(7, 120, 4, true);
}

#[test]
#[ignore = "bench-sized; run by scripts/bench.sh"]
fn bench_fleet_drill_writes_bench_chaos_json() {
    let report = drill::fleet(7, 120, 4);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_chaos.json");
    std::fs::write(out, report.to_string() + "\n").expect("BENCH_chaos.json written");
}
