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

echo "== analyze-corpus determinism (jobs=1 vs jobs=4 and 64, both clients) =="
# The batch runtime must produce byte-identical output for any worker
# count (wall times are only printed under --timing, which we omit).
# 64 workers are more than the 19 corpus programs.
cargo build -q -p mpl-cli --offline
MPL=target/debug/mpl
for client in cartesian simple; do
  seq_out=$("$MPL" analyze-corpus --client "$client" --jobs 1)
  seq_json=$("$MPL" analyze-corpus --client "$client" --jobs 1 --json)
  for jobs in 4 64; do
    par_out=$("$MPL" analyze-corpus --client "$client" --jobs "$jobs")
    diff <(printf '%s\n' "$seq_out") <(printf '%s\n' "$par_out") \
      || { echo "analyze-corpus --client $client output differs between jobs=1 and jobs=$jobs"; exit 1; }
    par_json=$("$MPL" analyze-corpus --client "$client" --jobs "$jobs" --json)
    diff <(printf '%s\n' "$seq_json") <(printf '%s\n' "$par_json") \
      || { echo "analyze-corpus --client $client --json output differs between jobs=1 and jobs=$jobs"; exit 1; }
  done
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

echo "== release mpl on robustness inputs (no panic) =="
# Overflow checks differ between the two builds: `cargo test` and the
# steps above run the debug `mpl`, while users and mpl-benchmark run the
# release one. Under the release build, each program must analyze under
# both clients, check, and run on 4 ranks with exit 0 or 1 and no panic:
# communication inside a time-step loop (the guarded halo shift and the
# paper's Fig 7 shift), and `i64::MIN / -1`.
cargo build -q --release -p mpl-cli --offline
cat > "$smoke_dir/robust_guarded_loop.mpl" <<'MPL'
j := 0;
while j < 2 do
  if id < np - 1 then
    send 7 -> id + 1;
  end
  if id > 0 then
    recv y <- id - 1;
  end
  j := j + 1;
end
MPL
cat > "$smoke_dir/robust_fig7_loop.mpl" <<'MPL'
for t = 1 to 3 do
  x := id;
  if id = 0 then
    send x -> id + 1;
  else
    if id = np - 1 then
      recv y <- id - 1;
    else
      recv y <- id - 1;
      send x -> id + 1;
    end
  end
end
MPL
cat > "$smoke_dir/robust_min_div.mpl" <<'MPL'
m := 0 - 9223372036854775807 - 1;
q := m / (0 - 1);
print q;
MPL
robust_run() { # robust_run PROGRAM COMMAND [FLAGS...]
  local prog=$1 cmd=$2 out code=0
  shift 2
  out=$(target/release/mpl "$cmd" "$prog" "$@" 2>&1) || code=$?
  if [ "$code" -gt 1 ] || grep -q panicked <<< "$out"; then
    echo "release mpl $cmd $* on $(basename "$prog") exited $code:"
    printf '%s\n' "$out"
    exit 1
  fi
}
for prog in "$smoke_dir"/robust_*.mpl; do
  robust_run "$prog" analyze --client simple
  robust_run "$prog" analyze --client cartesian
  robust_run "$prog" check
  robust_run "$prog" run --np 4
done

echo "== profile and tables smoke (E1-E12, E18) =="
# `profile --check` exits nonzero unless every sample of a row reports
# the same counters, `hot-set` and `MatchSet::insert` stay within their
# fingerprint and allocation bounds and E29's k = 1024 row within its
# parse, CFG and cold-request heap bounds (`count check`), and, on every
# program out of timer noise, the five phases of the median run explain
# its worklist loop
# (|schedule+transfer+match+join/widen+admission - loop| <= 10% of loop;
# each `phase check` line also prints the gap without `schedule`).
# `tables` regenerates the untimed figures and must not panic.
cargo build -q --release -p mpl-bench --offline
target/release/profile --check | grep -E '^(phase|count|counter|alloc) check'
target/release/tables >/dev/null

echo "== examples (each binary asserts its paper claims) =="
# Every `[[bin]]` of examples/Cargo.toml, run from the repository root;
# an assertion failure is a nonzero exit.
cargo build -q --release -p mpl-examples --offline
examples=$(awk '/^\[\[bin\]\]/ { bin = 1 } bin && /^name = / { gsub(/"/, "", $3); print $3; bin = 0 }' examples/Cargo.toml)
for example in $examples; do
  "target/release/$example" >/dev/null || { echo "example $example failed"; exit 1; }
done

echo "== serve daemon smoke over TCP (cache + byte-identity) =="
# Start a daemon, fire concurrent requests at it, and hold it to the
# protocol's core contract: every served response is byte-identical to
# what the one-shot `mpl analyze --json` prints, and a repeated request
# is answered from the result cache (>= 1 hit in `stats`). This smoke
# serves over TCP on an ephemeral port, read from the `serving` line;
# the smokes after it serve over a Unix socket.
"$MPL" serve --tcp 127.0.0.1:0 --cache 32 > "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do grep -q '"type":"serving"' "$smoke_dir/serve.log" && break; sleep 0.05; done
addr=$(grep -o '"addr":"[^"]*"' "$smoke_dir/serve.log" | cut -d'"' -f4 || true)
[ -n "$addr" ] || { echo "serve daemon did not come up"; exit 1; }
prog="$smoke_dir/p0.mpl"
client_pids=()
for i in 1 2 3 4; do
  "$MPL" client --tcp "$addr" --file "$prog" > "$smoke_dir/resp$i.json" &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  wait "$pid" || { echo "concurrent serve client failed"; exit 1; }
done
# A fifth, sequential request: with the cache warm this must be a hit.
"$MPL" client --tcp "$addr" --file "$prog" > "$smoke_dir/resp5.json"
oneshot=$("$MPL" analyze "$prog" --json)
for i in 1 2 3 4 5; do
  diff <(printf '%s\n' "$oneshot") "$smoke_dir/resp$i.json" \
    || { echo "served response $i diverged from mpl analyze --json"; exit 1; }
done
stats=$("$MPL" client --tcp "$addr" --op stats)
hits=$(grep -o '"hits":[0-9]*' <<< "$stats" | grep -o '[0-9]*')
[ "$hits" -ge 1 ] || { echo "expected >= 1 cache hit, got: $stats"; exit 1; }
"$MPL" client --tcp "$addr" --op shutdown >/dev/null
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

echo "== serve journal tier smoke (--cache 1 restart) =="
# A third start on the same --cache-dir with room for one entry: replay
# leaves only the newest record (chaos3) in memory, so chaos3 is a
# memory hit and chaos1 and chaos2 are answered from their journal
# records, byte-identical and without a new append.
"$MPL" serve --socket "$chaos_sock" --cache-dir "$chaos_dir" --cache 1 > "$smoke_dir/chaos3.log" &
chaos_pid=$!
for _ in $(seq 1 100); do [ -S "$chaos_sock" ] && break; sleep 0.05; done
[ -S "$chaos_sock" ] || { echo "chaos daemon did not start a third time"; exit 1; }
for i in 3 1 2; do
  "$MPL" client --socket "$chaos_sock" --file "$smoke_dir/chaos$i.mpl" > "$smoke_dir/chaos-tier$i.json"
  diff "$smoke_dir/chaos-cold$i.json" "$smoke_dir/chaos-tier$i.json" \
    || { echo "journal-tier response $i diverged from its pre-crash bytes"; exit 1; }
done
tier_stats=$("$MPL" client --socket "$chaos_sock" --op stats)
tier_stat() { grep -o "\"$1\":[0-9]*" <<< "$tier_stats" | grep -o '[0-9]*'; }
[ "$(tier_stat hits)" -ge 1 ] || { echo "expected >= 1 memory hit: $tier_stats"; exit 1; }
[ "$(tier_stat journal_hits)" -ge 2 ] || { echo "expected >= 2 journal hits: $tier_stats"; exit 1; }
[ "$(tier_stat journal_appends)" -eq 0 ] || { echo "expected no journal appends: $tier_stats"; exit 1; }
"$MPL" client --socket "$chaos_sock" --op shutdown >/dev/null
wait "$chaos_pid" || { echo "chaos daemon exited nonzero after its third start"; exit 1; }

echo "verify: OK"
