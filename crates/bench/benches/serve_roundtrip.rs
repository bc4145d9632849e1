//! Per-request overhead of the `stqc serve` protocol, measured
//! in-process against the production reactor ([`Server::run_unix`] on
//! a temp socket) over one connection dialed once — no process spawn,
//! no per-request connect, so the numbers isolate framing + routing +
//! scheduling from transport setup. Three rungs:
//!
//! * `stats` — answered inline on the reactor thread: the floor, pure
//!   parse/route/render round-trip;
//! * `check` — a small program through the queue and worker pool;
//! * `prove_warm` — the steady-state serving claim: a repeated prove
//!   served entirely from the resident warm cache (asserted: zero new
//!   misses across the measured loop).
//!
//! The end-to-end daemon-vs-one-shot comparison (real processes, real
//! socket, concurrent clients) is `stqc bench-serve`, which records
//! `BENCH_serve.json`; see docs/serving.md and docs/telemetry.md.

use criterion::{criterion_group, criterion_main, Criterion};

#[cfg(unix)]
mod unix_bench {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::Path;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use stq_core::{ServeConfig, Server, Session};
    use stq_util::json::Json;
    use stq_util::CancelToken;

    /// A live connection to an in-process daemon serving `socket`.
    struct Wire {
        client: UnixStream,
        reader: BufReader<UnixStream>,
    }

    impl Wire {
        /// Dials `socket` until the daemon's run thread has bound it.
        fn connect(socket: &Path) -> Wire {
            let deadline = Instant::now() + Duration::from_secs(10);
            let client = loop {
                match UnixStream::connect(socket) {
                    Ok(client) => break client,
                    Err(e) => assert!(Instant::now() < deadline, "daemon never bound: {e}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let reader = BufReader::new(client.try_clone().expect("stream clones"));
            Wire { client, reader }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.client
                .write_all(format!("{line}\n").as_bytes())
                .expect("request written");
            let mut response = String::new();
            self.reader.read_line(&mut response).expect("response read");
            response
        }

        /// One checked round-trip, used outside the measured loops to
        /// pin that the responses being timed are successes.
        fn assert_ok(&mut self, line: &str) -> Json {
            let raw = self.roundtrip(line);
            let doc = Json::parse(raw.trim()).expect("response parses");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
            doc
        }
    }

    fn cache_misses(doc: &Json) -> u64 {
        doc.get("result")
            .and_then(|r| r.get("cache"))
            .and_then(|c| c.get("misses"))
            .and_then(Json::as_u64)
            .expect("prove result carries cache misses")
    }

    pub fn bench_roundtrips(c: &mut Criterion) {
        let socket = std::env::temp_dir().join(format!(
            "stq-bench-serve-roundtrip-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let cancel = CancelToken::new();
        let server = Arc::new(
            Server::new(
                Session::with_builtins(),
                ServeConfig::default(),
                cancel.clone(),
            )
            .expect("in-memory server"),
        );
        let run = {
            let server = Arc::clone(&server);
            let socket = socket.clone();
            std::thread::spawn(move || server.run_unix(&socket))
        };
        let mut wire = Wire::connect(&socket);
        let mut group = c.benchmark_group("serve_roundtrip");

        let stats_req = "{\"id\":1,\"method\":\"stats\"}";
        wire.assert_ok(stats_req);
        group.bench_function("stats", |b| b.iter(|| wire.roundtrip(stats_req)));

        let check_req =
            "{\"id\":1,\"method\":\"check\",\"params\":{\"source\":\"int pos x = 3;\"}}";
        let checked = wire.assert_ok(check_req);
        assert_eq!(
            checked
                .get("result")
                .and_then(|r| r.get("clean"))
                .and_then(Json::as_bool),
            Some(true)
        );
        group.bench_function("check", |b| b.iter(|| wire.roundtrip(check_req)));

        let prove_req = "{\"id\":1,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}";
        let warm = wire.assert_ok(prove_req); // first call fills the cache
        let misses_before = cache_misses(&warm);
        group.bench_function("prove_warm", |b| b.iter(|| wire.roundtrip(prove_req)));
        let after = wire.assert_ok(prove_req);
        assert_eq!(
            cache_misses(&after),
            misses_before,
            "the measured warm loop must never miss the resident cache"
        );
        group.finish();
        cancel.cancel();
        run.join().expect("daemon thread").expect("daemon run");
        let _ = std::fs::remove_file(socket.with_extension("sock.lock"));
    }
}

#[cfg(unix)]
use unix_bench::bench_roundtrips;

#[cfg(not(unix))]
fn bench_roundtrips(_c: &mut Criterion) {}

criterion_group!(benches, bench_roundtrips);
criterion_main!(benches);
