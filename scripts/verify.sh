#!/usr/bin/env bash
# Repo verification: offline build, lints, formatting, the full test
# suite, and the determinism contract of the ndc-par runtime — every
# `ndc-eval` stage below (including the `--metrics` observability dump)
# must print bit-identical output whether the experiment fan-out runs
# on one thread or eight — plus the BENCH_*.json attestations and exact
# gates. The run must leave the worktree as it found it: from a clean
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
# BENCH_*.json in place, so the committed copies are saved aside first
# and each regenerated file must equal its own exactly. The files hold
# simulated counters only (host time is perfbench's job). To accept new
# numbers after an intentional behaviour change, commit the
# regenerated files.
for b in scale fusion fig4_schemes fig4_schemes.paper model_accuracy; do
    cp "BENCH_$b.json" "$tmp/base_$b.json"
done
gate() { "$EVAL" gate --baseline "$tmp/base_$1.json" --current "BENCH_$1.json"; }

echo "== determinism: NDC_THREADS=1 vs NDC_THREADS=8 (+ BENCH_fig4_schemes.json) =="
# The full fig4 sweep writes the simulated counters of every kernel and
# every Figure 4 run (Figures 4, 6 and 13) to BENCH_fig4_schemes.json.
same_across_threads fig4 "fig4 output bit-identical" \
    "$EVAL" fig4 --scale test --metrics "$tmp/metrics.{t}"
same_outputs "$tmp/metrics.1" "$tmp/metrics.8" "--metrics output byte-identical"
gate fig4_schemes

echo "== headline at paper scale: BENCH_fig4_schemes.paper.json =="
# One paper-scale sweep, the scale EXPERIMENTS.md quotes.
"$EVAL" fig4 --scale paper
gate fig4_schemes.paper

echo "== determinism: fig13 NDC_THREADS=1 vs NDC_THREADS=8 =="
same_across_threads fig13 "fig13 output bit-identical" "$EVAL" fig13 --scale test

echo "== determinism: explain NDC_THREADS=1 vs NDC_THREADS=8 =="
same_across_threads explain "explain spans/provenance bit-identical" \
    "$EVAL" explain --scale test --bench kdtree

echo "== model accuracy: reuse-based cost model vs legacy heuristic =="
# The full explain sweep (every workload x every NDC location) emits
# BENCH_model_accuracy.json with the mean/max error of the reuse-based
# model and of the retired heuristic; the reuse model must win.
same_across_threads explain-json "explain --json sweep byte-identical" \
    "$EVAL" explain --scale test --json
require BENCH_model_accuracy.json '"model_beats_legacy":true' \
    "reuse model does not beat the legacy heuristic"
require BENCH_model_accuracy.json '"rows"' "BENCH_model_accuracy.json has no accuracy rows"
gate model_accuracy

# `check` also runs the span-attribution invariant: CheckLevel::full()
# samples request spans and asserts child spans + queue/stall residue
# sum exactly to each root latency.
echo "== correctness layer: oracle + invariants + fault matrix =="
"$EVAL" check --scale test

echo "== static legality: lint verdicts, certificates, fault matrix =="
same_across_threads lint "lint verdicts bit-identical" "$EVAL" lint --scale test
cat "$tmp/lint.1"

echo "== mesh scale-up: simulated counters + BENCH_scale.json =="
# Test scale: the 8x8 mesh. The printed study is pinned across
# NDC_THREADS minus its host columns (host ms, insts/sec).
simulated_only() { grep -v "host ms" | cut -c1-42; }
same_across_threads scale "scale study simulated cycles/instructions bit-identical" \
    --filter simulated_only "$EVAL" scale --scale test
require BENCH_scale.json '"rows"' "BENCH_scale.json has no measurement rows"
gate scale

echo "== operator fusion: fused-vs-unfused report + BENCH_fusion.json =="
# Every workload compiled with fusion off and on, both schedules
# simulated; fusion must fire and some workload must reduce both
# predicted bytes and measured offload cycles.
same_across_threads fuse "fuse report bit-identical" "$EVAL" fuse --scale test
cat "$tmp/fuse.1"
require BENCH_fusion.json '"rows"' "BENCH_fusion.json has no per-workload rows"
refuse BENCH_fusion.json '"scale":"Test","fused_chains":0,' \
    "BENCH_fusion.json reports zero fused chains overall"
refuse BENCH_fusion.json '"workloads_reduced_bytes_and_cycles":0' \
    "no workload reduced both bytes moved and offload cycles"
gate fusion

echo "== seeded fuzzing: full pipeline, deterministic across thread counts =="
# A fixed 512-seed corpus through generator -> verifier/bounds ->
# layout -> compilers -> lint -> oracle -> checked simulator -> the
# fusion stage. The subcommand exits 1 on any divergence, violation,
# or panic, printing the reproducing seed.
same_across_threads fuzz "fuzz report bit-identical" "$EVAL" fuzz --count 512 --seed 7
cat "$tmp/fuzz.1"
require BENCH_fuzz_corpus.json '"clean":true' "BENCH_fuzz_corpus.json does not attest a clean run"
require BENCH_fuzz_corpus.json '"classes"' "BENCH_fuzz_corpus.json has no corpus table"

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
