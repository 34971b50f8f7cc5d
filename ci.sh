#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Everything runs against the vendored/shimmed workspace — no network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo clippy -p arv-view-server (no unwraps in serving paths)"
cargo clippy -p arv-view-server -- -D warnings -D clippy::unwrap_used

echo "==> cargo clippy -p arv-fleet (no unwraps in the control plane)"
cargo clippy -p arv-fleet -- -D warnings -D clippy::unwrap_used

echo "==> cargo clippy -p arv-persist (no unwraps under the journal/lease)"
cargo clippy -p arv-persist -- -D warnings -D clippy::unwrap_used

echo "==> cargo clippy -p arv-telemetry (no unwraps in the observability plane)"
cargo clippy -p arv-telemetry -- -D warnings -D clippy::unwrap_used

echo "==> perfbench build (the repo benchmark compiles against the public API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> fault-pipeline e2e (wire kill/restart under concurrent readers)"
cargo test -q -p arv-integration-tests --test fault_pipeline_e2e

echo "==> fleet e2e (multi-periphery ingest under racing rollup readers)"
cargo test -q -p arv-integration-tests --test fleet_e2e

echo "==> fleet failover e2e (replicated pair, primary killed mid-stream)"
cargo test -q -p arv-integration-tests --test fleet_failover_e2e

echo "==> wire reactor e2e (hundreds of racing/slow/hostile clients on one daemon)"
cargo test -q -p arv-integration-tests --test wire_reactor_e2e

echo "==> chaos experiment (seeded fault injection, replay-checked)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig chaos --scale 0.5 > /dev/null

echo "==> chaos experiment, rotated seeds"
cargo run -q --release -p arv-experiments --bin experiments -- --fig chaos --scale 0.5 --seed-offset 1 > /dev/null

echo "==> observability experiment (provenance replay + trace-overhead budget)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig obs --scale 0.5 > /dev/null

echo "==> recovery experiment (journaled warm restart + admission-controlled flood)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig recovery --scale 0.5 > /dev/null

echo "==> recovery experiment, rotated seeds"
cargo run -q --release -p arv-experiments --bin experiments -- --fig recovery --scale 0.5 --seed-offset 1 > /dev/null

echo "==> fleet experiment (core↔periphery aggregation, partitions, controller failover)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleet --scale 0.5 > /dev/null

echo "==> fleet experiment, rotated seeds (failover/split-brain must hold beyond the canonical seeds)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleet --scale 0.5 --seed-offset 1 > /dev/null

echo "==> fleet observability experiment (waterfalls vs ground truth, bit-identical flight dumps, overhead budget)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleetobs --scale 0.5 > /dev/null

echo "==> fleet observability experiment, rotated seeds"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleetobs --scale 0.5 --seed-offset 1 > /dev/null

echo "==> storm campaign (storage faults composed with every fleet axis, durability ladder gated)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig storm --scale 0.5 > /dev/null

echo "==> storm campaign, rotated seeds (the ladder must hold beyond the canonical seeds)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig storm --scale 0.5 --seed-offset 1 > /dev/null

echo "==> fleet bench (ingest throughput, rollup query cost, resync ticks, failover convergence, obs overhead)"
cargo bench -q -p arv-bench --bench fleet > /dev/null
test -s BENCH_fleet.json || { echo "BENCH_fleet.json missing"; exit 1; }

echo "==> persist bench (journal append cost, restore throughput, faulty-store overhead)"
cargo bench -q -p arv-bench --bench persist > /dev/null
test -s BENCH_persist.json || { echo "BENCH_persist.json missing"; exit 1; }

echo "==> wire bench (5k-connection fanout, cached-read p99, reactor throughput)"
cargo bench -q -p arv-bench --bench wire > /dev/null
test -s BENCH_wire.json || { echo "BENCH_wire.json missing"; exit 1; }

echo "==> pipeline bench (tick and limit-update cost scale with N: 8k/1k ratio gates)"
cargo bench -q -p arv-bench --bench pipeline > /dev/null
test -s BENCH_pipeline.json || { echo "BENCH_pipeline.json missing"; exit 1; }

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> ci: all green"
