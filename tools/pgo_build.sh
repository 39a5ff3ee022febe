#!/usr/bin/env bash
# Profile-guided release build of the `run_experiments` binary.
#
# Three-phase PGO when a usable `llvm-profdata` is available:
#
#   1. build instrumented (`-Cprofile-generate`) with `-Ctarget-cpu=native`,
#   2. run a training workload that exercises the hot kernels (turbo,
#      sharded turbo, coded) through the real CLI,
#   3. merge the raw profiles and rebuild with `-Cprofile-use`.
#
# `llvm-profdata` must come from the same LLVM major version as rustc's
# backend or the merge rejects the .profraw files. The probe order is:
#
#   a. the rustup `llvm-tools` component in the toolchain sysroot
#      (always version-matched when installed),
#   b. a PATH `llvm-profdata` whose major version matches rustc's LLVM.
#
# When neither is present — common on minimal containers — the script
# degrades gracefully to a plain `-Ctarget-cpu=native` release build and
# says so. It never installs anything. Either way the final binaries land
# in `target/release/` and the script exits 0, so CI can run it as a
# non-gating step.
#
# Usage: tools/pgo_build.sh [--profile-dir DIR]

set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE_DIR=target/pgo-profiles
if [ "${1:-}" = "--profile-dir" ]; then
    PROFILE_DIR=${2:?--profile-dir needs a value}
fi

NATIVE_FLAGS="-Ctarget-cpu=native"
BINS=(--bin run_experiments)

rustc_llvm_major() {
    rustc -vV | sed -n 's/^LLVM version: \([0-9]*\).*/\1/p'
}

profdata_llvm_major() {
    "$1" merge --version 2>/dev/null | sed -n 's/.*LLVM version \([0-9]*\).*/\1/p' | head -n1
}

find_profdata() {
    local sysroot host candidate rustc_major tool_major
    sysroot=$(rustc --print sysroot)
    host=$(rustc -vV | sed -n 's/^host: //p')
    rustc_major=$(rustc_llvm_major)

    candidate="$sysroot/lib/rustlib/$host/bin/llvm-profdata"
    if [ -x "$candidate" ]; then
        echo "$candidate"
        return 0
    fi

    candidate=$(command -v llvm-profdata || true)
    if [ -n "$candidate" ]; then
        tool_major=$(profdata_llvm_major "$candidate")
        if [ -n "$tool_major" ] && [ "$tool_major" = "$rustc_major" ]; then
            echo "$candidate"
            return 0
        fi
        echo "note: $candidate is LLVM ${tool_major:-unknown} but rustc uses LLVM $rustc_major; skipping it" >&2
    fi
    return 1
}

# The training workload: short but representative runs of the kernels the
# optimized binaries spend their time in. Seeds are fixed so the profile
# is reproducible.
train() {
    local bin=target/release/run_experiments
    echo "== training: turbo benchmark regime =="
    "$bin" --scenario big-swarm-k32 \
        --replications 2 --jobs 1 --seed 7 >/dev/null
    echo "== training: sharded turbo =="
    "$bin" --scenario big-swarm-k32 \
        --shards 8 --sync-window 0.25 \
        --replications 2 --jobs 0 --seed 7 >/dev/null
    echo "== training: coded =="
    "$bin" --scenario coded-gift-super \
        --replications 2 --jobs 1 --seed 7 --horizon 200 >/dev/null
}

if PROFDATA=$(find_profdata); then
    echo "using $PROFDATA"
    rm -rf "$PROFILE_DIR"
    mkdir -p "$PROFILE_DIR"
    ABS_PROFILE_DIR=$(cd "$PROFILE_DIR" && pwd)

    echo "=== phase 1: instrumented build ==="
    RUSTFLAGS="$NATIVE_FLAGS -Cprofile-generate=$ABS_PROFILE_DIR" \
        cargo build --release "${BINS[@]}"

    echo "=== phase 2: training run ==="
    train

    echo "=== phase 3: profile merge + optimized rebuild ==="
    "$PROFDATA" merge -o "$ABS_PROFILE_DIR/merged.profdata" "$ABS_PROFILE_DIR"/*.profraw
    RUSTFLAGS="$NATIVE_FLAGS -Cprofile-use=$ABS_PROFILE_DIR/merged.profdata" \
        cargo build --release "${BINS[@]}"
    echo "PGO build complete: target/release/ (profile: $ABS_PROFILE_DIR/merged.profdata)"
else
    echo "no version-matched llvm-profdata found (install the rustup" >&2
    echo "'llvm-tools' component to enable PGO); falling back to a plain" >&2
    echo "-Ctarget-cpu=native release build" >&2
    RUSTFLAGS="$NATIVE_FLAGS" cargo build --release "${BINS[@]}"
    echo "native (non-PGO) build complete: target/release/"
fi
