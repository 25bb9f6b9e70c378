#!/usr/bin/env bash
# Repo verification: offline build, lints, formatting, the full test
# suite, the benchmark's build and unit tests, and the determinism
# contract of the ndc-par runtime — every `ndc-eval` stage below
# (including the `--metrics` and `--trace` observability dumps) must print
# bit-identical output whether the experiment fan-out runs on one
# thread or eight — plus the attestations over the committed
# results/*.json tables and their exact gates.
# The run must leave the worktree as it found it: from a clean
# checkout, `git status --porcelain` is still empty at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
status_before=$(git status --porcelain)

echo "== build (release, offline) =="
cargo build --release --offline --workspace
echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "== rustfmt (check) =="
cargo fmt --check
echo "== tests (offline) =="
cargo test -q --offline --workspace
echo "== tests (release profile): trace store, address algebra, bounds prover, simulator hot path, pinned analyses =="
# Debug builds trap on integer overflow where release builds wrap, so
# the crates whose address arithmetic relies on wrapping (the packed
# trace store, the affine address forms and their carry deltas, the
# interval rule) also run their tests, property tests included,
# optimized, and so do the pinned hash of every kernel's lowered
# instructions (`tests/trace_store.rs`) and the pinned hashes of every
# kernel's CME predictions and reuse facts (`tests/reuse.rs`), whose
# strides come from the checked fold. The simulator's hot-path crates
# (caches, the paged sharer directory, the network, the engine) run
# optimized too, as perfbench builds them.
cargo test --release --offline -p ndc-types -p ndc-ir -p ndc-lint -p ndc-mem -p ndc-noc -p ndc-sim
cargo test --release --offline -p ndc --test trace_store --test reuse
echo "== benchmark: perfbench builds and its unit tests pass =="
# perfbench links the `ndc` facade by path, so a change to any public
# item it calls must still compile there. `--locked` fails on a stale
# perfbench/Cargo.lock instead of rewriting it; the build lands in the
# ignored perfbench/target/.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

EVAL=target/release/ndc-eval
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# same_outputs A B WHAT [FILTER]: files A and B must match (after each
# is piped through the FILTER command, if given).
same_outputs() {
    if ! cmp -s <(${4:-cat} < "$1") <(${4:-cat} < "$2"); then
        diff <(head -c 2000 "$1") <(head -c 2000 "$2") | head -20 >&2
        fail "$3: output differs across thread counts"
    fi
    echo "ok: $3 across thread counts"
}

# same_across_threads NAME WHAT [--filter FILTER] CMD...: run CMD under
# NDC_THREADS=1 and =8 (`{t}` in an argument becomes the thread count)
# with stdout in $tmp/NAME.1 and $tmp/NAME.8; the two must match.
same_across_threads() {
    local name=$1 what=$2 filter=cat t
    shift 2
    if [[ $1 == --filter ]]; then
        filter=$2
        shift 2
    fi
    for t in 1 8; do
        NDC_THREADS=$t "${@//\{t\}/$t}" > "$tmp/$name.$t"
    done
    same_outputs "$tmp/$name.1" "$tmp/$name.8" "$what" "$filter"
}

# require FILE PATTERN MESSAGE: FILE exists and contains PATTERN.
# refuse FILE PATTERN MESSAGE: FILE does not contain PATTERN.
require() { test -s "$1" || fail "$1 missing"; grep -q "$2" "$1" || fail "$3"; }
refuse() { ! grep -q "$2" "$1" || fail "$3"; }

# Regression gate: the stages below regenerate every committed
# results/*.json table in place, so the committed copies (whatever
# `git ls-files` lists) are saved aside first and each regenerated file
# must equal its own exactly at the end. The tables hold simulated
# counters and figures only (host time is perfbench's job). To accept
# new numbers after an intentional behaviour change, commit the
# regenerated files. A table verify.sh writes that git does not track
# fails the worktree check below.
mapfile -t tables < <(git ls-files 'results/*.json')
[[ ${#tables[@]} -gt 0 ]] || fail "no committed results/*.json tables"
mkdir -p "$tmp/base"
for f in "${tables[@]}"; do
    cp "$f" "$tmp/base/$(basename "$f")"
done

echo "== determinism: every table of all --scale test, NDC_THREADS=1 vs 8 =="
# One test-scale sweep of every experiment writes every test-scale
# table. Its --metrics and --trace dumps cover every run of the shared
# evaluation; the Chrome trace holds each run's latest NDC offload
# events (online offloads, compiled packets and aborts), so the order
# and timing of those events are pinned across thread counts too.
same_across_threads all "all --scale test output bit-identical" \
    "$EVAL" all --scale test --metrics "$tmp/metrics.{t}" --trace "$tmp/trace.{t}"
same_outputs "$tmp/metrics.1" "$tmp/metrics.8" "--metrics output byte-identical"
same_outputs "$tmp/trace.1" "$tmp/trace.8" "--trace output byte-identical"

echo "== every table at paper scale =="
# One paper-scale sweep, the scale EXPERIMENTS.md quotes, writes every
# results/*.paper.json table.
"$EVAL" all --scale paper > /dev/null

echo "== determinism: explain NDC_THREADS=1 vs NDC_THREADS=8 =="
same_across_threads explain "explain spans/provenance bit-identical" \
    "$EVAL" explain --scale test --bench kdtree

echo "== model accuracy: reuse-based cost model vs legacy heuristic =="
# results/model_accuracy.json holds the error of the reuse-based model
# and of the retired heuristic per workload and NDC location; the
# reuse model's mean error must be the lower.
same_across_threads explain-json "explain --json sweep byte-identical" \
    "$EVAL" explain --scale test --json
require results/model_accuracy.json 'model_beats_legacy: true' \
    "reuse model does not beat the legacy heuristic"
require results/model_accuracy.json '^"cache/md":' "results/model_accuracy.json has no accuracy rows"

# `check` also runs the span-attribution invariant: CheckLevel::full()
# samples request spans and asserts child spans + queue/stall residue
# sum exactly to each root latency. Its per-kernel requests/links/
# events/spans columns count what each checked run recorded.
echo "== correctness layer: oracle + invariants + fault matrix =="
same_across_threads check "check report bit-identical" "$EVAL" check --scale test
cat "$tmp/check.1"

echo "== static legality: lint verdicts, certificates, fault matrix =="
same_across_threads lint "lint verdicts bit-identical" "$EVAL" lint --scale test
cat "$tmp/lint.1"

echo "== mesh scale-up: simulated counters + results/scale.json =="
# Test scale: the 8x8 mesh. The printed study is pinned across
# NDC_THREADS minus its host columns (host ms, insts/sec), which are
# the last two and are cut at the header's "host ms".
simulated_only() { awk 'NR == 2 { c = index($0, " host ms") } c { $0 = substr($0, 1, c - 1) } 1'; }
same_across_threads scale "scale study simulated cycles/instructions bit-identical" \
    --filter simulated_only "$EVAL" scale --scale test
require results/scale.json '^"8x8":' "results/scale.json has no measurement rows"

echo "== operator fusion: fused-vs-unfused report + results/fusion.json =="
# Every workload compiled with fusion off and on, both schedules
# simulated; fusion must fire and some workload must reduce both
# predicted bytes and measured offload cycles (the `cuts-both` total).
same_across_threads fuse "fuse report bit-identical" "$EVAL" fuse --scale test
cat "$tmp/fuse.1"
require results/fusion.json '^"md":' "results/fusion.json has no per-workload rows"
refuse results/fusion.json '^"total":{"chains":0,' \
    "results/fusion.json reports zero fused chains overall"
refuse results/fusion.json '^"total":.*"cuts-both":0}' \
    "no workload reduced both bytes moved and offload cycles"

echo "== seeded fuzzing: full pipeline, deterministic across thread counts =="
# A fixed 512-seed corpus through generator -> verifier/bounds ->
# layout -> compilers -> lint -> oracle -> checked simulator -> the
# fusion stage. The subcommand exits 1 on any divergence, violation,
# or panic, printing the reproducing seed.
same_across_threads fuzz "fuzz report bit-identical" "$EVAL" fuzz --count 512 --seed 7
cat "$tmp/fuzz.1"
require results/fuzz_corpus.json '^"total":.*"failed":0,' "results/fuzz_corpus.json does not attest a clean run"
require results/fuzz_corpus.json '^"stencil":' "results/fuzz_corpus.json has no corpus table"

echo "== exact gate: every committed table =="
for f in "${tables[@]}"; do
    "$EVAL" gate --baseline "$tmp/base/$(basename "$f")" --current "$f"
done

echo "== profile: tenant attribution deterministic across thread counts =="
same_across_threads profile "profile ledger/sketches byte-identical" \
    "$EVAL" profile --scale test --tenants 2 --json

echo "== worktree unchanged =="
status_after=$(git status --porcelain)
if [[ $status_after != "$status_before" ]]; then
    echo "git status --porcelain before:" >&2
    echo "$status_before" >&2
    echo "git status --porcelain after:" >&2
    echo "$status_after" >&2
    fail "verify.sh changed the worktree"
fi
echo "ok: worktree as found"

echo "== all checks passed =="
