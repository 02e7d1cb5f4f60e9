#!/usr/bin/env bash
# Tier-1 verification + example smoke pass, fully offline.
#
# The workspace has zero external dependencies by design (see DESIGN.md
# §3): --offline both enforces that invariant and proves the build needs
# no registry. The example pass catches example bit-rot that `cargo
# test` alone would miss (examples are binaries, not test targets).
#
# `scripts/verify.sh --deep` additionally reruns every property suite at
# NKT_PROP_CASES=1000 (the ROADMAP's overnight hardening sweep; minutes,
# not seconds — opt-in).
set -euo pipefail
cd "$(dirname "$0")/.."

deep=0
[[ "${1:-}" == "--deep" ]] && deep=1

# The workspace builds warning-free and stays that way. Exported so every
# cargo call below shares one set of flags (a per-command RUSTFLAGS would
# rebuild the workspace each time it toggles).
export RUSTFLAGS="-D warnings"

# Every smoke's scratch directories live under one root, removed on exit.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== tier-1: build (release, offline) =="
cargo build --release --offline

echo "== tier-1: tests (offline; default-members = the whole workspace) =="
cargo test -q --offline

echo "== example smoke pass =="
for ex in quickstart cylinder_wake fourier_dns flapping_wing_ale cluster_compare; do
    echo "-- example: $ex"
    cargo run --release --offline --example "$ex" > /dev/null
done

echo "== config smoke (a rejected value is named on stderr before any world is built) =="
# A value outside the flag dialect is an error, not a run with the
# default: the example exits nonzero and names the variable on stderr.
if config_err="$(NKT_PROF=blocking cargo run --release --offline --example fourier_dns 2>&1 > /dev/null)"; then
    echo "FAIL: NKT_PROF=blocking was accepted" >&2
    exit 1
fi
if ! grep -q 'NKT_PROF' <<< "$config_err"; then
    echo "FAIL: the rejected NKT_PROF is not named on stderr:" >&2
    echo "$config_err" >&2
    exit 1
fi

echo "== checkpoint smoke (write -> corrupt -> detect -> fallback -> bitwise resume) =="
# restart_dns runs the whole drill in-process: a 2-rank DNS checkpoints
# epochs, a rank is killed and the run resumes bitwise; then a shard is
# bit-flipped, the CRC rejects it, the world falls back one epoch
# together, and the resumed run is still bitwise-identical.
cargo run --release --offline --example restart_dns > /dev/null

echo "== trace smoke pass (spans mode + exported-JSON round-trip) =="
# quickstart under NKT_TRACE=spans exports TRACE_quickstart.json and
# asserts per-stage span host totals match its StageClock ledger (host
# seconds) within 1%; trace_timeline then re-parses the artifact like a
# consumer would.
trace_dir="$work/trace"
mkdir "$trace_dir"
NKT_TRACE=spans NKT_TRACE_DIR="$trace_dir" \
    cargo run --release --offline --example quickstart > /dev/null
cargo run --release --offline --example trace_timeline -- \
    "$trace_dir/TRACE_quickstart.json" > /dev/null

echo "== serve smoke (job farm: preemption, then byte-identical manifests on rerun) =="
# serve_farm runs a four-job contended batch (two world slots, a
# high-priority ALE latecomer forcing checkpoint-backed evictions), then
# re-serves every job solo and exits nonzero unless each farm job's
# state hash and STATS bytes match its solo run bitwise. Two farm runs
# must also produce byte-identical MANIFEST_*.json: the schedule and the
# hashed artifacts are pure functions of the batch (DESIGN.md §15).
serve_a="$work/serve_a"
serve_b="$work/serve_b"
mkdir "$serve_a" "$serve_b"
NKT_SERVE_OUT="$serve_a" cargo run --release --offline --example serve_farm > /dev/null
NKT_SERVE_OUT="$serve_b" cargo run --release --offline --example serve_farm > /dev/null
for m in "$serve_a"/farm/*/MANIFEST_*.json; do
    rel="${m#"$serve_a"/}"
    if ! cmp -s "$m" "$serve_b/$rel"; then
        echo "FAIL: $rel differs between two identical serve runs" >&2
        exit 1
    fi
done
# The scheduler's decision timeline is an artifact too: byte-identical
# across reruns, and serve_report renders it.
if ! cmp -s "$serve_a/farm/EVENTS_farm.jsonl" "$serve_b/farm/EVENTS_farm.jsonl"; then
    echo "FAIL: EVENTS_farm.jsonl differs between two identical serve runs" >&2
    exit 1
fi
serve_report_out="$(cargo run --release --offline -p nkt-serve --bin serve_report -- \
    "$serve_a/farm/EVENTS_farm.jsonl")"
for ev in admit cut complete; do
    if ! grep -q "$ev" <<< "$serve_report_out"; then
        echo "FAIL: serve_report timeline is missing $ev events" >&2
        echo "$serve_report_out" >&2
        exit 1
    fi
done

echo "== oracle suite (run before regenerating a hash: these say \"still right\", a hash only \"changed\") =="
# A change that reassociates a solver moves its pinned state hashes on
# purpose; what licenses regenerating them is this suite passing first,
# unedited. Independent answers, held to tolerances: the dense
# natural-order solves of the spectral proptests, the tolerance twins
# beside every pinned hash of the two step contracts, and the decay-rate
# gates (Taylor-Green in the serial solver, the k = 0 plane against it and
# the k = 1 shear mode in NekTar-F, spectral convergence in p). The four
# plane kernels have their own: (i) the naive dense loops at 1e-13,
# orders 2-8, (ii) the weak forms as adjoints of the transforms, (iii)
# every monomial of degree <= p reproduced with its gradient on a skewed
# quadrilateral and a triangle, (iv) Taylor-Green under p-refinement down
# to the splitting floor; and `sweep` itself is held to dgemm.
cargo test -q --offline -p nkt-spectral --test proptests
cargo test -q --offline -p nkt-blas --lib -- sweep::
cargo test -q --offline -p nkt-spectral --lib -- plane_kernels_equal_the_naive_loops_within_tolerance \
    weak_forms_are_the_adjoints_of_the_transforms \
    monomials_up_to_the_order_are_reproduced_with_their_gradients
cargo test -q --offline -p nektar --lib -- taylor_green_converges_under_p_refinement
cargo test -q --offline -p nektar --test serial2d_step_contract --test fourier_step_contract -- \
    twins_within_tolerance decays_at_the_viscous_rate
cargo test -q --offline -p nektar --lib -- taylor_green_tracks_exact_solution \
    kinetic_energy_decays_at_viscous_rate k0_mode_matches_serial_2d_solver
cargo test -q --offline -p nkt-spectral --lib -- poisson_spectral_convergence_in_p

echo "== baseline determinism (two nkt-bench runs, the same bytes; the split-phase and pencil ops attributed) =="
# Everything nkt-bench writes lives on the virtual timeline: two runs into
# two directories must agree byte for byte (tables, PROF, CALIB, STATS,
# HASHES.txt). The profiles attribute the ALE's split-phase
# gather-scatter as gs.start / gs.finish (DESIGN.md §16) and the pencil
# transpose as two sub-communicator exchanges (§13). The calibration's
# measured PressureSolve window is tier-1's observer_pin, STATS restart
# identity drive_props' *_stop_and_resume_is_invisible, and the profile's
# 1% agreement with the StageClock ledgers nkt-bench's stage_ledger test.
bench_a="$work/bench_a"
bench_b="$work/bench_b"
cargo run --release --offline --quiet -p nkt-bench -- "$bench_a" > /dev/null
cargo run --release --offline --quiet -p nkt-bench -- "$bench_b" > /dev/null
if ! diff -r "$bench_a" "$bench_b" >&2; then
    echo "FAIL: two nkt-bench runs wrote different files (above)" >&2
    exit 1
fi
for want in 'PROF_flapping_wing_ale.json "gs.start"' 'PROF_flapping_wing_ale.json "gs.finish"' \
    'PROF_fourier_dns_roadrunner_myr_grid4x2.json "ialltoall.col"' \
    'PROF_fourier_dns_roadrunner_myr_grid4x2.json "ialltoall.row"'; do
    file="${want%% *}"
    op="${want#* }"
    if ! grep -qF "$op" "$bench_a/$file"; then
        echo "FAIL: $file is missing the $op op" >&2
        exit 1
    fi
done

echo "== baseline gate (every file under results/ regenerated and held to its baseline) =="
# PROF/STATS/CALIB rows inside their bands, every model table/figure and
# the baseline runs' state hashes byte for byte, no file or row on one side
# only. Gating: an intended change commits the regenerated baseline.
gate_out="$(scripts/check_baselines)" || {
    grep -E 'REGRESSED|MISSING|NEW \(|nkt-diff:|check_baselines:' <<< "$gate_out" >&2
    exit 1
}

echo "== benchmark smoke (perfbench builds against the workspace and its checks pass) =="
# perfbench is a package of its own that reaches into the solvers' public
# surface (HelmholtzProblem's matrix / asm / solve_with_rhs, NektarAle and
# its operators' gs handles, the drive loop, the serve engine); a change
# that breaks it must fail here, not in the benchmark driver: every gated
# workload, a second each. The build refreshes perfbench/Cargo.lock, which
# a change outside perfbench/ may not touch, so it is put back. Each run's
# `state hash` line (state digest and the three energies) is the value of
# its perfbench/<workload> row of the pin ledger, scripts/pins.txt: a
# bitwise-neutral change leaves the rows alone, a reassociating one
# replaces them in the same reviewed diff as results/HASHES.txt.
lock_keep="$work/perfbench.Cargo.lock"
cp perfbench/Cargo.lock "$lock_keep"
for row in "perfbench/wake2d" "perfbench/fourier_slab" "perfbench/ale_wing"; do
    workload="${row#perfbench/}"
    bench_rc=0
    bench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1999 --seconds 1)" || bench_rc=$?
    cp "$lock_keep" perfbench/Cargo.lock
    if [[ "$bench_rc" != 0 ]] || ! tail -n 1 <<< "$bench_out" | grep -q '"correct": true'; then
        echo "FAIL: perfbench $workload exited $bench_rc or did not report \"correct\": true" >&2
        tail -n 5 <<< "$bench_out" >&2
        exit 1
    fi
    hash_got="$(sed -n 's/^ *\(state hash.*\)/\1/p' <<< "$bench_out")"
    pinned="$(grep -F "$row | " scripts/pins.txt || true)"
    if [[ "$pinned" != "$row | $hash_got | "* ]]; then
        echo "FAIL: perfbench $workload state moved (seed 1999, --seconds 1). Committed:" >&2
        echo "$pinned" >&2
        echo "If the move is meant, replace that row of scripts/pins.txt and rewrite its reason:" >&2
        echo "$row | $hash_got | ${pinned#*| *| }" >&2
        exit 1
    fi
done

echo "== one plane pipeline (the basis tables are read inside nkt-spectral only) =="
# Every modal <-> quadrature, gradient and weak-form loop of the solvers,
# examples and facade is one of Discretization's plane kernels; a hand
# copy of such a loop reads the tables these accessors return.
if grep -rn 'dxi1()\|dxi2()\|\.val()\[' crates/core/src src examples; then
    echo "FAIL: basis tables read outside nkt-spectral (lines above): use the plane kernels" >&2
    exit 1
fi

echo "== one small-matrix kernel (sweep is defined in nkt-blas and nowhere else) =="
# The 3-D elemental operators and the 2-D plane kernels contract through
# nkt_blas::sweep, whose lane count covers blocks of elements; a second
# definition — a sweep3 / sweep2 beside it, or a lane or blocked copy
# under any name containing "sweep" — is a second kernel family to keep
# fast and correct. Non-test code only (each file up to its first
# column-0 #[cfg(test)]); the parameter sweeps of the benchmarks and the
# calibration and the table builder below are not contractions.
sweep_defs="$(find crates/*/src src examples -name '*.rs' ! -path 'crates/blas/src/*' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
        /fn [A-Za-z0-9_]*sweep[A-Za-z0-9_]*[<(]/ &&
            !/fn (netpipe_sweep|host_sweep|kernel_sweep_bytes|sweep_matrices)\(/ {
            print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$sweep_defs" ]]; then
    echo "$sweep_defs" >&2
    echo "FAIL: a sweep defined outside crates/blas/src (lines above): use nkt_blas::sweep" >&2
    exit 1
fi

echo "== one instruction-set seam (the AVX2 build and its host check live in nkt-blas) =="
# nkt_blas::isa compiles a kernel body once portably and once for AVX2 and
# checks the host in one place; a target_feature or a feature check in any
# other source file is a second dispatch to keep bitwise and fast.
if git ls-files '*.rs' | grep -v '^crates/blas/src/' \
    | xargs grep -n 'target_feature\|is_x86_feature_detected'; then
    echo "FAIL: an instruction-set dispatch outside crates/blas/src (lines above): use nkt_blas::isa" >&2
    exit 1
fi

echo "== one solve shape (BandedSolve items come from the recorder helper, the model or the replay) =="
# What a direct solve executes becomes work items in one place per side:
# opstream.rs for the native recording (from the problem's solve_shape;
# the serial tables replay it), workload.rs for NekTar-F's model only;
# replay.rs charges them. A solver that builds
# its own BandedSolve item has its own idea of the band.
if grep -rn 'WorkItem::BandedSolve {' crates/core/src \
    | grep -v '^crates/core/src/\(opstream\|workload\|replay\)\.rs:'; then
    echo "FAIL: BandedSolve constructed outside opstream.rs / workload.rs / replay.rs (lines above)" >&2
    exit 1
fi

echo "== one configuration in (the environment is read in nkt_trace::config and nowhere else) =="
# Every NKT_* variable is a row of config.rs's name table, parsed once at
# a binary's entry into a RunConfig and handed down; a second reader is a
# second dialect and a hidden input to a "deterministic" run. Allowed:
# config.rs itself, nkt-testkit's two property-test knobs, and
# results_dir()'s CARGO_MANIFEST_DIR.
if grep -rn 'env::var' crates src examples --include='*.rs' \
    | grep -v '^crates/trace/src/config\.rs:\|^crates/testkit/src/prop\.rs:\|CARGO_MANIFEST_DIR'; then
    echo "FAIL: env::var outside nkt_trace::config (lines above): take the value from RunConfig" >&2
    exit 1
fi
if grep -rn '"NKT_' crates src examples --include='*.rs' \
    | grep -v '^crates/trace/src/config\.rs:\|^crates/testkit/' \
    | grep -v '^[^:]*:[0-9]*: *//'; then
    echo "FAIL: an NKT_* name as a string literal outside config.rs and nkt-testkit (lines above)" >&2
    exit 1
fi

echo "== one JSON writer (artifacts are json::Value documents rendered in nkt_trace::json) =="
# Escaping, number format and layout live in crates/trace/src/json.rs
# alone; an artifact's owner builds a Value and calls render / write. A
# JSON-shaped string literal ("\"key\": ") or a json_str / json_f64 /
# json_f64_exact of its own is a second writer. Test modules (each file
# from its first column-0 #[cfg(test)]) may spell JSON by hand.
json_writers="$(find crates/*/src src examples -name '*.rs' ! -path crates/trace/src/json.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
        /\\"[^" \\]+\\": |fn json_(str|f64|f64_exact)[<(]/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$json_writers" ]]; then
    echo "$json_writers" >&2
    echo "FAIL: JSON written outside nkt_trace::json (lines above): build a json::Value" >&2
    exit 1
fi

echo "== one plane step (the 2-D weak forms and direct solves are called from plane.rs only) =="
# Both 2-D solvers advance through crates/core/src/plane.rs; a weak form or
# a direct solve called from other non-test code under crates/core/src,
# src or examples is a second step body.
plane_calls="$(find crates/core/src src examples -name '*.rs' ! -path crates/core/src/plane.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
        /(weak_div_add|weak_mass_add|solve_banded_in_place)(::<[^>]*>)?\(/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$plane_calls" ]]; then
    echo "$plane_calls" >&2
    echo "FAIL: a plane weak form or direct solve called outside plane.rs (lines above)" >&2
    exit 1
fi

echo "== one transpose (NekTar-F's exchanges are decomp::Grid's) =="
# One process grid is NekTar-F's only decomposition; a pr x 1 grid is the
# slab. An alltoall posted or a communicator split from other non-test
# code under crates/core/src is a second transpose beside it.
transposes="$(find crates/core/src -name '*.rs' ! -path crates/core/src/decomp.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
        /(ialltoall|alltoall_with|split_labeled)\(/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$transposes" ]]; then
    echo "$transposes" >&2
    echo "FAIL: a transpose exchange or grid split outside decomp.rs (lines above): use decomp::Grid" >&2
    exit 1
fi

echo "== line budget (non-test lines per crate, equal to scripts/line_budget.txt) =="
# scripts/lines counts each crate's non-test lines in a rustfmt-normalised
# temporary copy. The budget holds the same rows, each equal to its
# count: a crate over or under its row, a crate without a row and a row
# without a crate all fail, so a change that moves a crate moves its row.
budget_diff="$(diff <(awk '!/^#/ && NF { print $1, $2 }' scripts/line_budget.txt) \
    <(scripts/lines | awk '{ print $1, $2 }'))" || true
if [[ -n "$budget_diff" ]]; then
    echo "$budget_diff" >&2
    echo "FAIL: scripts/line_budget.txt (<) is not scripts/lines (>): simplify, or move the rows in the same diff" >&2
    exit 1
fi

echo "== pin ledger (every row of scripts/pins.txt is read at exactly one site) =="
# Each pin's name is a string literal at its one read site: a test under
# crates/*/tests or tests/ (nkt_testkit::assert_pin) or the benchmark
# smoke above. A row nothing reads is dead weight that still looks
# reviewed; a name read at two sites is two pins under one reason. The
# ledger's format and unique names are nkt-testkit's unit test.
pin_sites="$(find crates/*/tests tests -name '*.rs' -print0 | xargs -0 cat scripts/verify.sh)"
pin_faults="$(awk '!/^#/ && NF { print $1 }' scripts/pins.txt | while read -r name; do
    n="$(grep -oF "\"$name\"" <<< "$pin_sites" | wc -l)"
    [[ "$n" == 1 ]] || echo "$name: read at $n sites"
done)"
if [[ -n "$pin_faults" ]]; then
    echo "$pin_faults" >&2
    echo "FAIL: a scripts/pins.txt row is not read at exactly one site (lines above)" >&2
    exit 1
fi

if [[ "$deep" == 1 ]]; then
    echo "== deep property sweep (NKT_PROP_CASES=1000) =="
    NKT_PROP_CASES=1000 cargo test -q --offline --workspace
fi

# The benchmark driver refuses a change that edits what it measures with
# (`benchmark_edited`): neither the steps above nor the change under test
# may leave the benchmark's files different from the last commit.
bench_dirty="$(git status --porcelain -- perfbench BENCHMARK.json)"
if [[ -n "$bench_dirty" ]]; then
    echo "FAIL: the benchmark's own files differ from the last commit:" >&2
    echo "$bench_dirty" >&2
    exit 1
fi

echo "verify: OK"
