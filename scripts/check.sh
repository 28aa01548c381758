#!/usr/bin/env bash
# Tier-1 verification plus documentation checks, in one command.
#
#   scripts/check.sh            # build + ctest + docs checks
#   scripts/check.sh --docs-only
#
# Docs checks: (1) doxygen builds warning-clean over src/ and
# examples/ (skipped with a notice when doxygen is not installed),
# and (2) every relative markdown link in the repo's *.md files
# resolves to an existing file.
set -euo pipefail

cd "$(dirname "$0")/.."
failures=0

# Per-leg timeout (seconds): a hung fuzz or sanitizer leg must fail
# CI, not stall it. Override with CHECK_LEG_TIMEOUT; the `timeout`
# binary is coreutils, so fall back to no wrapper where it's absent.
leg_timeout="${CHECK_LEG_TIMEOUT:-1800}"
run_leg() {
    local rc=0
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "$leg_timeout" "$@" || rc=$?
        if [[ $rc == 124 || $rc == 137 ]]; then
            echo "FAIL: leg timed out after ${leg_timeout}s: $*"
        fi
    else
        "$@" || rc=$?
    fi
    return $rc
}

docs_only=0
skip_asan=0
skip_tsan=0
for arg in "$@"; do
    case "$arg" in
        --docs-only) docs_only=1 ;;
        --no-asan) skip_asan=1 ;;
        --no-tsan) skip_tsan=1 ;;
    esac
done

# ---------------------------------------------------------------
# Tier-1: configure, build, run the test suite.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== tier-1: build + tests =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --
    (cd build && run_leg ctest --output-on-failure -j "$(nproc)")
fi

# ---------------------------------------------------------------
# ASan+UBSan: rebuild the test binary with sanitizers and run the
# memory-sensitive suites (PM device, txlibs, crash fuzzer — the
# code that unwinds exceptions through transaction destructors).
# Skip with --no-asan when iterating on docs.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 && "$skip_asan" == 0 ]]; then
    echo "== asan+ubsan: fuzz/pm/txlib tests =="
    cmake -B build-asan -S . -DWHISPER_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$(nproc)" --target whisper_tests
    run_leg build-asan/tests/whisper_tests \
        --gtest_filter='CrashFuzz.*:PmPool.*:PmContext.*:Bloom.*:Mnemosyne*:Nvml*:Mod*'

    # Media-fault smoke sweep, one app per access layer, under ASan:
    # 256 (crash point x fault plan) cases each must end scrubbed or
    # named Degraded — zero violations, zero recovery-path panics.
    echo "== asan: media-fault sweep (one app per layer) =="
    cmake --build build-asan -j "$(nproc)" --target whisper_cli
    run_leg build-asan/examples/whisper_cli crashfuzz --cases 256 \
        --jobs "$(nproc)" --faults \
        --apps echo,vacation,hashmap,nfs,mod-hashmap,halo-hashmap
fi

# ---------------------------------------------------------------
# TSan: a separate build tree (TSan and ASan cannot coexist) running
# the PM pool's shard-lock races (wrapping and all-shard ranges), the
# MOD concurrency stress tests and the multi-threaded crash-fuzz
# replays — racing striped writers, lock-free readers, grace GC.
# Skip with --no-tsan when iterating on docs.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 && "$skip_tsan" == 0 ]]; then
    echo "== tsan: PM shard locks + MOD + halo concurrency stress =="
    cmake -B build-tsan -S . -DWHISPER_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$(nproc)" --target whisper_tests
    run_leg build-tsan/tests/whisper_tests \
        --gtest_filter='PmPoolConcurrency.*:ModConcurrency.*:ModHeap.*:CrashFuzz.MultiThread*:HaloDirectory.ReadersStayConsistentThroughDoubling:HaloFuzz.*:Lincheck.*:LincheckWorkload.*:LincheckFuzz.CaseReplayIsBitIdentical'
fi

# ---------------------------------------------------------------
# MOD recovery contract: a bounded crashfuzz sweep over the two MOD
# applications (>=128 cases each) must report zero violations — the
# root swap always commits a fully-persisted structure and the
# garbage lanes never reclaim a reachable node. The second sweep is
# the concurrent variant: >=256 cases per structure with three
# racing writer threads pinned to each case's gate schedule (512+
# multi-threaded cases total).
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: MOD recovery sweep =="
    run_leg build/examples/whisper_cli crashfuzz --cases 128 \
        --jobs "$(nproc)" --apps mod-hashmap,mod-vector
    echo "== crashfuzz: concurrent MOD recovery sweep =="
    run_leg build/examples/whisper_cli crashfuzz --cases 256 \
        --threads 3 --ops 12 --jobs "$(nproc)" \
        --apps mod-hashmap,mod-vector
fi

# ---------------------------------------------------------------
# Halo (Hybrid layer) recovery contract. The DRAM index is rebuilt
# by segment scan, so the sweep stresses the reconstruct-not-replay
# path: 256 multi-threaded crash+fault cases must hold the
# committed-reachable / uncommitted-invisible invariant, and the
# whole sweep run twice must print bit-identical per-app digests —
# the digest folds recovery images, fault outcomes and transient
# read counts, so any scheduling leak into the durable state or the
# verification oracle shows up here. A gtest leg then asserts the
# recovery scan itself is job-count-invariant: rebuildDigest() at
# --jobs 1 must equal --jobs $(nproc).
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: halo crash+fault sweep (rerun digest stability) =="
    halo_sweep() {
        run_leg build/examples/whisper_cli crashfuzz --cases 256 \
            --threads 3 --ops 12 --jobs "$(nproc)" --faults \
            --no-shrink --apps halo-hashmap
    }
    halo_a=$(halo_sweep) || failures=$((failures + 1))
    halo_b=$(halo_sweep) || failures=$((failures + 1))
    if [[ -z "$halo_a" || "$halo_a" != "$halo_b" ]]; then
        echo "FAIL: halo sweep digests differ between reruns"
        failures=$((failures + 1))
    else
        echo "ok: halo 256-case crash+fault sweep digest stable"
    fi
    echo "== halo: recovery-scan --jobs rebuild-digest equality =="
    run_leg build/tests/whisper_tests \
        --gtest_filter='HaloStore.RebuildDigestIdenticalAtAnyJobCount'
fi

# ---------------------------------------------------------------
# Durable linearizability (DESIGN.md §14): every concurrent layer
# sweeps 256 crash+fault cases with the history checker on — three
# racing writer threads per case, every key must find a witness
# linearization explaining the recovered state. The sweep run twice
# must be bit-identical (the lincheck verdicts fold into the case
# digest), so a scheduling leak into the recorder or checker cannot
# hide. A violation exits nonzero on its own; the rerun diff guards
# determinism.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: durable-linearizability sweep (rerun stability) =="
    lincheck_sweep() {
        run_leg build/examples/whisper_cli crashfuzz --cases 256 \
            --threads 3 --ops 12 --jobs "$(nproc)" --faults \
            --lincheck --no-shrink \
            --apps mod-hashmap,mod-vector,halo-hashmap
    }
    lin_a=$(lincheck_sweep) || failures=$((failures + 1))
    lin_b=$(lincheck_sweep) || failures=$((failures + 1))
    if [[ -z "$lin_a" || "$lin_a" != "$lin_b" ]]; then
        echo "FAIL: lincheck sweep output differs between reruns"
        failures=$((failures + 1))
    else
        echo "ok: lincheck 256-case sweep stable across reruns"
    fi
fi

# ---------------------------------------------------------------
# Workload smoke: one YCSB mix on four access layers. Each run must
# verify its invariants, and two runs at the same seed must print an
# identical JSON object — the determinism contract the latency
# numbers in docs/WORKLOADS.md rest on.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== workload: YCSB digest-stability smoke =="
    for app in hashmap mod-hashmap halo-hashmap nfs mysql; do
        a=$(run_leg build/examples/whisper_cli workload --app "$app" \
            --mix B --keys 2000 --threads 2 --ops 200 --json)
        b=$(run_leg build/examples/whisper_cli workload --app "$app" \
            --mix B --keys 2000 --threads 2 --ops 200 --json)
        if [[ "$a" != "$b" ]]; then
            echo "FAIL: workload JSON unstable across runs for $app"
            failures=$((failures + 1))
        elif ! grep -q '"verified":true' <<<"$a"; then
            echo "FAIL: workload verification failed for $app"
            failures=$((failures + 1))
        else
            echo "ok: $app mix B deterministic and verified"
        fi
    done
fi

# ---------------------------------------------------------------
# Record smoke: every registered app records 2000 ops on one thread
# and the trace is analyzed, twice. Each step must exit zero, and the
# two `analyze` outputs must match after their first line (which
# names the trace file): a single-threaded recording is
# deterministic. `simulate` is not compared — its DRAM addresses
# drift between processes.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== record: every app at 2000 ops, analyze twice =="
    rec_dir=$(mktemp -d /tmp/whisper-record-XXXXXX)
    record_body() {
        run_leg build/examples/whisper_cli record "$1" \
            "$rec_dir/t.bin" 2000 1 >/dev/null &&
            run_leg build/examples/whisper_cli analyze \
                "$rec_dir/t.bin" | tail -n +2
    }
    record_ok=1
    rec_apps=$(build/examples/whisper_cli list) || rec_apps=""
    if [[ -z "$rec_apps" ]]; then
        echo "FAIL: whisper_cli list printed no apps"
        record_ok=0
    fi
    for app in $rec_apps; do
        if ! rec_a=$(record_body "$app") ||
           ! rec_b=$(record_body "$app"); then
            echo "FAIL: record/analyze of $app exited nonzero"
            record_ok=0
        elif [[ -z "$rec_a" || "$rec_a" != "$rec_b" ]]; then
            echo "FAIL: analyze output of $app differs between runs"
            record_ok=0
        fi
    done
    rm -rf "$rec_dir"
    if [[ "$record_ok" == 1 ]]; then
        echo "ok: every app records and analyzes deterministically"
    else
        failures=$((failures + 1))
    fi
fi

# ---------------------------------------------------------------
# Elision equivalence: the same media-fault sweep with and without
# the txlib elision policy must produce identical per-case
# VerifyReport verdicts. Crash images, digests and the set of cases
# that end Degraded legitimately differ — elision changes the PM-op
# schedule, so case K cuts a different op and the fault plan lands
# on a different dirty-line set — but the contract verdict (held,
# possibly degraded, vs violated) may not: every elided operation
# was provably redundant.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: elision-on/off fault-sweep equivalence =="
    verdicts() {
        run_leg build/examples/whisper_cli crashfuzz --cases 64 \
            --jobs "$(nproc)" --faults --no-shrink --json \
            --apps vacation,hashmap "$@" |
            grep -oE '"ok":(true|false),"degraded":(true|false)' |
            awk -F'[:,]' '{print ($2 == "true" || $4 == "true") \
                           ? "held" : "VIOLATED"}'
    }
    base=$(verdicts)
    elided=$(verdicts --elide)
    if [[ -z "$base" || "$base" != "$elided" ]]; then
        echo "FAIL: elision changed per-case recovery verdicts"
        failures=$((failures + 1))
    elif grep -q VIOLATED <<<"$base"; then
        echo "FAIL: fault sweep violated recovery invariants"
        failures=$((failures + 1))
    else
        echo "ok: elided sweep matches baseline verdict for verdict"
    fi
fi

# ---------------------------------------------------------------
# Optimizer determinism: the redundancy report is a commutative fold
# of per-thread summaries, so `optimize` output (table and JSON)
# must be bit-identical at any --jobs value.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== optimize: --jobs determinism =="
    opt_trace=$(mktemp /tmp/whisper-optimize-XXXXXX.bin)
    run_leg build/examples/whisper_cli record vacation \
        "$opt_trace" 120 4 >/dev/null
    one=$(run_leg build/examples/whisper_cli optimize "$opt_trace" \
        --jobs 1; run_leg build/examples/whisper_cli optimize \
        "$opt_trace" --jobs 1 --json)
    many=$(run_leg build/examples/whisper_cli optimize "$opt_trace" \
        --jobs "$(nproc)"; run_leg build/examples/whisper_cli \
        optimize "$opt_trace" --jobs "$(nproc)" --json)
    rm -f "$opt_trace"
    if [[ -z "$one" || "$one" != "$many" ]]; then
        echo "FAIL: optimize output varies with --jobs"
        failures=$((failures + 1))
    elif ! grep -qE '"redundant":[1-9]' <<<"$one"; then
        echo "FAIL: optimize found no redundancy on a vacation trace"
        failures=$((failures + 1))
    else
        echo "ok: optimize bit-identical at --jobs 1 and $(nproc)"
    fi
fi

# ---------------------------------------------------------------
# PM device model (DESIGN.md §13): the default device must be the
# paper's Table 3 machine, byte-identical whether the flag is given
# or not; the calibrated (optane) model's cycle counts are pinned on
# a deterministic workload trace and must not vary between runs; and
# DIMM-balanced placement must beat naive next-fit under the
# calibrated model (bench_dimm_balance enforces its own floor).
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== device model: table3 identity + optane goldens =="
    dev_trace=$(mktemp /tmp/whisper-device-XXXXXX.bin)
    # One thread: a 2-thread recording interleaves on the shared
    # clock differently from run to run, and its simulated cycles
    # move with it.
    run_leg build/examples/whisper_cli workload --app hashmap \
        --mix A --keys 1000 --threads 1 --ops 150 \
        --trace "$dev_trace" >/dev/null
    plain=$(run_leg build/examples/whisper_cli simulate "$dev_trace")
    table3=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device table3)
    optane=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device optane)
    optane2=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device optane)
    rm -f "$dev_trace"
    device_ok=1
    if [[ -z "$plain" || "$plain" != "$table3" ]]; then
        echo "FAIL: simulate --device table3 differs from default"
        device_ok=0
    fi
    if [[ "$optane" != "$optane2" ]]; then
        echo "FAIL: calibrated simulate output varies between runs"
        device_ok=0
    fi
    # Uniform (Table 3) and calibrated goldens on the 1-thread
    # hashmap/mix-A workload trace.
    for want in \
        'x86-64 \(NVM\)  *121874' 'HOPS \(NVM\)  *37379' \
        'ideal.*25378'
    do
        if ! grep -qE "$want" <<<"$plain"; then
            echo "FAIL: table3 golden '$want' missing from simulate"
            device_ok=0
        fi
    done
    for want in \
        'x86-64 \(NVM\)  *109554' 'HOPS \(NVM\)  *34999' \
        'ideal.*22522' 'PM device \(per-DIMM line write-backs\)'
    do
        if ! grep -qE "$want" <<<"$optane"; then
            echo "FAIL: optane golden '$want' missing from simulate"
            device_ok=0
        fi
    done
    if ! run_leg build/bench/bench_dimm_balance >/dev/null; then
        echo "FAIL: bench_dimm_balance (balanced must beat naive)"
        device_ok=0
    fi
    if [[ "$device_ok" == 1 ]]; then
        echo "ok: table3 identity, optane goldens, balance floor"
    else
        failures=$((failures + 1))
    fi
fi

# ---------------------------------------------------------------
# Docs check 1: doxygen must run warning-clean.
# ---------------------------------------------------------------
echo "== docs: doxygen =="
if command -v doxygen >/dev/null 2>&1; then
    rm -f doxygen_warnings.log
    doxygen Doxyfile
    if [[ -s doxygen_warnings.log ]]; then
        echo "FAIL: doxygen produced warnings:"
        cat doxygen_warnings.log
        failures=$((failures + 1))
    else
        echo "ok: doxygen build warning-clean"
    fi
else
    echo "skip: doxygen not installed"
fi

# ---------------------------------------------------------------
# Docs check 2: no dead relative links in the markdown files.
# Matches [text](target) where target is not an URL or anchor, and
# verifies the target (sans #fragment) exists relative to the file.
# ---------------------------------------------------------------
echo "== docs: markdown links =="
dead=0
while IFS= read -r md; do
    dir=$(dirname "$md")
    while IFS= read -r target; do
        [[ -z "$target" ]] && continue
        path="${target%%#*}"
        [[ -z "$path" ]] && continue # pure #anchor
        if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
            echo "FAIL: dead link in $md -> $target"
            dead=$((dead + 1))
        fi
    done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$md" |
             sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/' |
             grep -vE '^(https?|mailto):' || true)
done < <(find . -name '*.md' -not -path './build*' -not -path './docs/html/*')

if [[ "$dead" == 0 ]]; then
    echo "ok: all relative markdown links resolve"
else
    failures=$((failures + 1))
fi

# ---------------------------------------------------------------
# Docs check 3: docs/CLI.md must not drift from the binary's help.
# Every subcommand in `whisper_cli help` must be documented, every
# `whisper_cli <sub>` the docs mention must exist, and every flag the
# help advertises must appear in the docs.
# ---------------------------------------------------------------
echo "== docs: CLI drift (help vs docs/CLI.md) =="
if [[ -x build/examples/whisper_cli ]]; then
    drift=0
    help_out=$(build/examples/whisper_cli help)
    help_subs=$(awk '/^  whisper_cli /{print $2}' <<<"$help_out" |
                grep -v '^--' | sort -u)
    doc_subs=$(grep -oE 'whisper_cli (record|analyze|optimize|simulate|apps|workload|crashfuzz|lincheck|list|help)\b' \
               docs/CLI.md | awk '{print $2}' | sort -u)
    for sub in $help_subs; do
        if ! grep -qx "$sub" <<<"$doc_subs"; then
            echo "FAIL: subcommand '$sub' in help but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done
    for sub in $doc_subs; do
        if ! grep -qx "$sub" <<<"$help_subs"; then
            echo "FAIL: docs/CLI.md documents unknown subcommand '$sub'"
            drift=$((drift + 1))
        fi
    done
    while IFS= read -r flag; do
        if ! grep -q -- "$flag" docs/CLI.md; then
            echo "FAIL: flag '$flag' in help but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done < <(grep -oE '\-\-[a-z-]+' <<<"$help_out" | sort -u)
    # Access-layer drift: every layer name `whisper_cli apps` groups
    # by (Native, Library/*, FS/PMFS, Hybrid/Halo, ...) must appear
    # in docs/CLI.md, so a new layer cannot land without its docs row.
    while IFS= read -r layer; do
        if ! grep -q -- "$layer" docs/CLI.md; then
            echo "FAIL: layer '$layer' in apps output but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done < <(build/examples/whisper_cli apps --ops 8 --threads 2 |
             awk '$1 ~ /^([A-Za-z]+\/[A-Za-z]+|Native)$/ {print $1}' |
             sort -u)
    if [[ "$drift" == 0 ]]; then
        echo "ok: docs/CLI.md matches whisper_cli help"
    else
        failures=$((failures + 1))
    fi
else
    echo "skip: build/examples/whisper_cli not built"
fi

if [[ "$failures" != 0 ]]; then
    echo "check.sh: FAILED ($failures check(s))"
    exit 1
fi
echo "check.sh: all checks passed"
