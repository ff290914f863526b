#!/usr/bin/env bash
# Offline tier-1 verification: formatting, lints, and the full test
# suite, with zero registry access (the workspace has no external
# dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (private items included) =="
# A stale intra-doc link fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings --document-private-items" \
  cargo doc --workspace --no-deps --offline -q

echo "== cargo test --workspace =="
cargo test --workspace --offline -q

echo "== analyze-corpus determinism (jobs=1 vs jobs=4 and 64) =="
# The batch runtime must produce byte-identical output for any worker
# count (wall times are only printed under --timing, which we omit).
# 64 workers are more than the 19 corpus programs.
cargo build -q -p mpl-cli --offline
MPL=target/debug/mpl
seq_out=$("$MPL" analyze-corpus --jobs 1)
seq_json=$("$MPL" analyze-corpus --jobs 1 --json)
for jobs in 4 64; do
  par_out=$("$MPL" analyze-corpus --jobs "$jobs")
  diff <(printf '%s\n' "$seq_out") <(printf '%s\n' "$par_out") \
    || { echo "analyze-corpus output differs between jobs=1 and jobs=$jobs"; exit 1; }
  par_json=$("$MPL" analyze-corpus --jobs "$jobs" --json)
  diff <(printf '%s\n' "$seq_json") <(printf '%s\n' "$par_json") \
    || { echo "analyze-corpus --json output differs between jobs=1 and jobs=$jobs"; exit 1; }
done

echo "== analyze-corpus golden JSON (byte-identical) =="
# The corpus report is a public, deterministic artifact: any refactor of
# the engine/scheduler/observer layering must reproduce it byte for
# byte. Regenerate tests/tests/golden_corpus.json only for an
# *intentional* behavior change.
diff <("$MPL" analyze-corpus --json) tests/tests/golden_corpus.json \
  || { echo "analyze-corpus --json diverged from tests/tests/golden_corpus.json"; exit 1; }

echo "== fault-injection smoke (panic + spin isolation) =="
# An 8-program corpus with one panicking and one spinning job: the fleet
# must complete, --keep-going must exit 0, and exactly those two jobs
# may end non-completed. Records must stay byte-identical across worker
# counts even with faults in the mix.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
good='if id = 0 then
  x := 5;
  send x -> 1;
else
  if id = 1 then
    recv y <- 0;
    print y;
  end
end'
for i in 0 1 2 3 4 5; do printf '%s\n' "$good" > "$smoke_dir/p$i.mpl"; done
printf '// mpl:fault=panic\n%s\n' "$good" > "$smoke_dir/x_panic.mpl"
printf '// mpl:fault=spin\n%s\n' "$good" > "$smoke_dir/y_spin.mpl"
smoke_out=$("$MPL" analyze-corpus --dir "$smoke_dir" --jobs 4 --timeout-ms 200 --keep-going --json) \
  || { echo "fault-injection run exited nonzero despite --keep-going"; exit 1; }
panicked=$(grep -c '"outcome":"panicked"' <<< "$smoke_out")
timed_out=$(grep -c '"outcome":"timed-out"' <<< "$smoke_out")
completed=$(grep -c '"outcome":"completed"' <<< "$smoke_out")
if [ "$panicked" != 1 ] || [ "$timed_out" != 1 ] || [ "$completed" != 6 ]; then
  echo "unexpected outcomes: completed=$completed panicked=$panicked timed_out=$timed_out"
  printf '%s\n' "$smoke_out"
  exit 1
fi
smoke_seq=$("$MPL" analyze-corpus --dir "$smoke_dir" --jobs 1 --timeout-ms 200 --keep-going --json)
diff <(printf '%s\n' "$smoke_seq") <(printf '%s\n' "$smoke_out") \
  || { echo "faulted corpus output differs between jobs=1 and jobs=4"; exit 1; }
# 16 workers are more than the 8 files.
smoke_wide=$("$MPL" analyze-corpus --dir "$smoke_dir" --jobs 16 --timeout-ms 200 --keep-going --json)
diff <(printf '%s\n' "$smoke_seq") <(printf '%s\n' "$smoke_wide") \
  || { echo "faulted corpus output differs between jobs=1 and jobs=16"; exit 1; }
# Without --keep-going the injected failures must be a nonzero exit.
if "$MPL" analyze-corpus --dir "$smoke_dir" --jobs 4 --timeout-ms 200 >/dev/null; then
  echo "expected nonzero exit without --keep-going"; exit 1
fi

echo "== profile and tables smoke (E1-E12, E18) =="
# `profile --check` exits nonzero unless every sample of a row reports
# the same counters and, on every program out of timer noise, the four
# phases of the median run explain its worklist loop
# (|transfer+match+join/widen+admission - loop| <= 10% of loop).
# `tables` regenerates the untimed figures and must not panic.
cargo build -q --release -p mpl-bench --offline
target/release/profile --check | grep -E '^(phase|counter|alloc) check'
target/release/tables >/dev/null

echo "== serve daemon smoke (cache + byte-identity) =="
# Start a daemon, fire concurrent requests at it, and hold it to the
# protocol's core contract: every served response is byte-identical to
# what the one-shot `mpl analyze --json` prints, and a repeated request
# is answered from the result cache (>= 1 hit in `stats`).
sock="$smoke_dir/serve.sock"
"$MPL" serve --socket "$sock" --cache 32 > "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.05; done
[ -S "$sock" ] || { echo "serve daemon did not come up"; exit 1; }
prog="$smoke_dir/p0.mpl"
client_pids=()
for i in 1 2 3 4; do
  "$MPL" client --socket "$sock" --file "$prog" > "$smoke_dir/resp$i.json" &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  wait "$pid" || { echo "concurrent serve client failed"; exit 1; }
done
# A fifth, sequential request: with the cache warm this must be a hit.
"$MPL" client --socket "$sock" --file "$prog" > "$smoke_dir/resp5.json"
oneshot=$("$MPL" analyze "$prog" --json)
for i in 1 2 3 4 5; do
  diff <(printf '%s\n' "$oneshot") "$smoke_dir/resp$i.json" \
    || { echo "served response $i diverged from mpl analyze --json"; exit 1; }
done
stats=$("$MPL" client --socket "$sock" --op stats)
hits=$(grep -o '"hits":[0-9]*' <<< "$stats" | grep -o '[0-9]*')
[ "$hits" -ge 1 ] || { echo "expected >= 1 cache hit, got: $stats"; exit 1; }
"$MPL" client --socket "$sock" --op shutdown >/dev/null
wait "$serve_pid" || { echo "serve daemon exited nonzero"; exit 1; }
grep -q '"type":"shutdown-summary"' "$smoke_dir/serve.log" \
  || { echo "missing shutdown summary"; cat "$smoke_dir/serve.log"; exit 1; }

echo "== serve crash-recovery smoke (kill -9 + warm restart) =="
# A daemon with a persistent cache journal is killed with SIGKILL while
# clients are mid-flight; a restart on the same --cache-dir must replay
# the journal and serve the settled requests as warm, byte-identical
# hits. Finishes with a graceful drain shutdown.
chaos_dir="$smoke_dir/chaos-cache"
chaos_sock="$smoke_dir/chaos.sock"
for i in 1 2 3; do printf 'x := %s;\nprint x;\n' "$i" > "$smoke_dir/chaos$i.mpl"; done
"$MPL" serve --socket "$chaos_sock" --cache-dir "$chaos_dir" > "$smoke_dir/chaos1.log" &
chaos_pid=$!
for _ in $(seq 1 100); do [ -S "$chaos_sock" ] && break; sleep 0.05; done
[ -S "$chaos_sock" ] || { echo "chaos daemon did not come up"; exit 1; }
# Settle three distinct programs so their journal records are durable.
for i in 1 2 3; do
  "$MPL" client --socket "$chaos_sock" --file "$smoke_dir/chaos$i.mpl" > "$smoke_dir/chaos-cold$i.json"
done
# Racing load at kill time: these clients may fail, and that is fine.
for i in 1 2 3 4; do
  "$MPL" client --socket "$chaos_sock" --file "$smoke_dir/chaos1.mpl" >/dev/null 2>&1 &
done
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
wait || true
rm -f "$chaos_sock"
"$MPL" serve --socket "$chaos_sock" --cache-dir "$chaos_dir" > "$smoke_dir/chaos2.log" &
chaos_pid=$!
for _ in $(seq 1 100); do [ -S "$chaos_sock" ] && break; sleep 0.05; done
[ -S "$chaos_sock" ] || { echo "chaos daemon did not restart"; exit 1; }
for i in 1 2 3; do
  "$MPL" client --socket "$chaos_sock" --file "$smoke_dir/chaos$i.mpl" > "$smoke_dir/chaos-warm$i.json"
  diff "$smoke_dir/chaos-cold$i.json" "$smoke_dir/chaos-warm$i.json" \
    || { echo "warm response $i diverged from its pre-crash bytes"; exit 1; }
done
chaos_oneshot=$("$MPL" analyze "$smoke_dir/chaos1.mpl" --json)
diff <(printf '%s\n' "$chaos_oneshot") "$smoke_dir/chaos-warm1.json" \
  || { echo "journal-replayed response diverged from mpl analyze --json"; exit 1; }
chaos_stats=$("$MPL" client --socket "$chaos_sock" --op stats)
replayed=$(grep -o '"replayed":[0-9]*' <<< "$chaos_stats" | grep -o '[0-9]*')
warm_hits=$(grep -o '"hits":[0-9]*' <<< "$chaos_stats" | grep -o '[0-9]*')
[ "$replayed" -ge 3 ] || { echo "expected >= 3 replayed journal entries: $chaos_stats"; exit 1; }
[ "$warm_hits" -ge 3 ] || { echo "expected >= 3 warm hits after restart: $chaos_stats"; exit 1; }
"$MPL" client --socket "$chaos_sock" --op shutdown --mode drain >/dev/null
wait "$chaos_pid" || { echo "chaos daemon exited nonzero after drain"; exit 1; }
grep -q '"type":"drain"' "$smoke_dir/chaos2.log" \
  || { echo "missing drain record"; cat "$smoke_dir/chaos2.log"; exit 1; }
grep -q '"type":"shutdown-summary"' "$smoke_dir/chaos2.log" \
  || { echo "missing shutdown summary"; cat "$smoke_dir/chaos2.log"; exit 1; }

echo "verify: OK"
