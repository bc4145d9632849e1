#!/usr/bin/env bash
# Full local gate: formatting, release build, test suite, and lint-clean
# clippy, for the workspace and for the benchmark crate.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# stqbench is a workspace of its own, so `--all` and `--workspace` skip it.
echo "==> cargo fmt --check (stqbench)"
cargo fmt --check --manifest-path stqbench/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Again in release: overflow checks and debug assertions run only in the
# debug pass, and a test that races the prover sees release speed only
# here.
echo "==> cargo test -q --release --workspace"
cargo test -q --release --workspace

echo "==> stqbench unit tests and known-answer oracle"
cargo test -q --manifest-path stqbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (stqbench) --all-targets -- -D warnings"
cargo clippy --manifest-path stqbench/Cargo.toml --all-targets -- -D warnings

echo "==> rustdoc with warnings denied (broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude rand --exclude proptest

echo "==> every example runs to completion (cargo test only compiles them)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> example $name"
    cargo run -q --release --example "$name" >/dev/null
done

echo "==> stqc single-threaded smoke (--jobs 1)"
smoke_src="$(mktemp /tmp/stqc-smoke-XXXXXX.c)"
trap 'rm -f "$smoke_src"' EXIT
printf 'int pos one() { return (int pos) 1; }\n' > "$smoke_src"
./target/release/stqc check "$smoke_src"
./target/release/stqc prove --jobs 1 pos

echo "==> stqc fuzz smoke (fixed seed, bounded)"
./target/release/stqc fuzz --seed 0 --count 100 --jobs 2

echo "==> stqc fuzz corpus replay"
./target/release/stqc fuzz --replay tests/corpus

echo "==> stqc deadline smoke (expired deadline must exit 5, not hang)"
deadline_rc=0
timeout 30 ./target/release/stqc prove --deadline-ms 0 >/dev/null || deadline_rc=$?
if [ "$deadline_rc" -ne 5 ]; then
    echo "expected exit 5 from an expired deadline, got $deadline_rc" >&2
    exit 1
fi

echo "==> stqc interrupted-then-resumed cache smoke"
cache_dir="$(mktemp -d /tmp/stqc-smoke-cache-XXXXXX)"
trap 'rm -f "$smoke_src"; rm -rf "$cache_dir"' EXIT
interrupted_rc=0
./target/release/stqc prove --cache-dir "$cache_dir" --deadline-ms 0 >/dev/null \
    || interrupted_rc=$?
if [ "$interrupted_rc" -ne 5 ]; then
    echo "expected exit 5 from the interrupted run, got $interrupted_rc" >&2
    exit 1
fi
./target/release/stqc prove --cache-dir "$cache_dir" >/dev/null
warm_stats="$(./target/release/stqc prove --cache-dir "$cache_dir" --stats)"
if ! grep -q ' 0 miss(es)' <<< "$warm_stats"; then
    echo "resumed warm run still missed the cache:" >&2
    echo "$warm_stats" >&2
    exit 1
fi

echo "==> stqc serve smoke (daemon round-trip + clean shutdown)"
serve_sock="/tmp/stqc-smoke-serve-$$.sock"
./target/release/stqc serve --socket "$serve_sock" &
serve_pid=$!
trap 'rm -f "$smoke_src" "$serve_sock" "$serve_sock.lock"; rm -rf "$cache_dir"; kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
done
./target/release/stqc call --socket "$serve_sock" check \
    '{"source":"int pos x = 3;"}' >/dev/null
./target/release/stqc call --socket "$serve_sock" shutdown >/dev/null
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
    echo "expected exit 0 from a requested daemon shutdown, got $serve_rc" >&2
    exit 1
fi
if [ -e "$serve_sock" ]; then
    echo "daemon left its socket file behind: $serve_sock" >&2
    exit 1
fi

echo "==> stqc TCP serve smoke (kernel-assigned port, call --tcp round-trip)"
addr_file="/tmp/stqc-smoke-tcp-$$.addr"
./target/release/stqc serve --tcp 127.0.0.1:0 --addr-file "$addr_file" --jobs 1 &
tcp_pid=$!
trap 'rm -f "$smoke_src" "$serve_sock" "$serve_sock.lock" "$addr_file"; rm -rf "$cache_dir"; kill "$serve_pid" "$tcp_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s "$addr_file" ] && break
    sleep 0.1
done
tcp_addr="$(cat "$addr_file")"
./target/release/stqc call --tcp "$tcp_addr" check \
    '{"source":"int pos x = 3;"}' >/dev/null

./target/release/stqc call --tcp "$tcp_addr" shutdown >/dev/null
tcp_rc=0
wait "$tcp_pid" || tcp_rc=$?
if [ "$tcp_rc" -ne 0 ]; then
    echo "expected exit 0 from a requested TCP daemon shutdown, got $tcp_rc" >&2
    exit 1
fi

echo "==> stqc HA failover smoke (two daemons, one journal; dead primary rescued warm)"
ha_dir="$(mktemp -d /tmp/stqc-smoke-ha-XXXXXX)"
trap 'rm -f "$smoke_src" "$serve_sock" "$serve_sock.lock" "$addr_file"; rm -rf "$cache_dir" "$ha_dir"; kill "$serve_pid" "$tcp_pid" "$ha_a_pid" "$ha_b_pid" "$ha_r_pid" 2>/dev/null || true' EXIT
./target/release/stqc serve --socket "$ha_dir/a.sock" --cache-dir "$ha_dir/cache" &
ha_a_pid=$!
./target/release/stqc serve --socket "$ha_dir/b.sock" --cache-dir "$ha_dir/cache" &
ha_b_pid=$!
for _ in $(seq 1 100); do
    [ -S "$ha_dir/a.sock" ] && [ -S "$ha_dir/b.sock" ] && break
    sleep 0.1
done
# Warm daemon A (the journal persists eagerly), SIGKILL it, then the
# same prove against the A-then-B endpoint list must be rescued by B —
# and answered warm purely by following the shared journal.
./target/release/stqc call --socket "$ha_dir/a.sock" prove >/dev/null
kill -KILL "$ha_a_pid" 2>/dev/null
failover_json="$(./target/release/stqc call --json \
    --socket "$ha_dir/a.sock" --socket "$ha_dir/b.sock" prove)"
if ! grep -q '"endpoints_tried":2' <<< "$failover_json"; then
    echo "expected the call to dial both endpoints:" >&2
    echo "$failover_json" >&2
    exit 1
fi
if ! grep -q '"misses":0' <<< "$failover_json"; then
    echo "the surviving daemon was not warm via journal follow:" >&2
    echo "$failover_json" >&2
    exit 1
fi
./target/release/stqc call --socket "$ha_dir/b.sock" shutdown >/dev/null
ha_b_rc=0
wait "$ha_b_pid" || ha_b_rc=$?
if [ "$ha_b_rc" -ne 0 ]; then
    echo "expected exit 0 from the surviving daemon's shutdown, got $ha_b_rc" >&2
    exit 1
fi

echo "==> stqc hot-reload smoke (good swap reloads; broken library rolls back)"
reload_lib="$ha_dir/quals.stq"
cat > "$reload_lib" << 'EOF'
value qualifier nonneg(int Expr E)
case E of
    decl int Const C: C, where C >= 0
  | decl int Expr E1, E2: E1 + E2, where nonneg(E1) && nonneg(E2)
invariant value(E) >= 0
EOF
./target/release/stqc serve --socket "$ha_dir/r.sock" --quals "$reload_lib" &
ha_r_pid=$!
for _ in $(seq 1 100); do
    [ -S "$ha_dir/r.sock" ] && break
    sleep 0.1
done
reload_ok="$(./target/release/stqc call --socket "$ha_dir/r.sock" reload)"
if ! grep -q '"reloaded":true' <<< "$reload_ok"; then
    echo "expected a clean reload of the good library:" >&2
    echo "$reload_ok" >&2
    exit 1
fi
printf 'value qualifier broken(\n' > "$reload_lib"
reload_rc=0
reload_bad="$(./target/release/stqc call --socket "$ha_dir/r.sock" reload)" || reload_rc=$?
if [ "$reload_rc" -ne 3 ]; then
    echo "expected exit 3 (input) from a broken-library reload, got $reload_rc" >&2
    exit 1
fi
if ! grep -q 'rolled back' <<< "$reload_bad"; then
    echo "expected the failed reload to report a rollback:" >&2
    echo "$reload_bad" >&2
    exit 1
fi
# The old definitions must still serve after the rollback.
./target/release/stqc call --socket "$ha_dir/r.sock" prove '{"names":["nonneg"]}' >/dev/null
./target/release/stqc call --socket "$ha_dir/r.sock" shutdown >/dev/null

echo "==> all checks passed"
