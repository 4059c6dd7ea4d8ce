#!/usr/bin/env bash
# Repo-wide gate: lint + typecheck + tier-1 and benchmark tests + smokes.
#
# ruff and mypy are optional in minimal environments (no network, no
# installs); when a tool is absent we say so and skip that leg rather
# than fail, so the test leg always runs.
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src

failed=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests || failed=1
else
    echo "== ruff == not installed, skipping lint"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy src/repro/analysis || failed=1
else
    echo "== mypy == not installed, skipping typecheck"
fi

echo "== repro.lint =="
# Project-invariant linter (seeded RNG only, no wall clocks, frozen
# trace events, integer-exact capacity arithmetic); stdlib-only, so it
# always runs.
python -m repro.lint || failed=1

echo "== pytest (tier 1) =="
python -m pytest -x -q tests/ || failed=1

echo "== pytest (benchmark) =="
# The benchmark's own suite: every op against bench/golden.json and the
# traced-run smoke.
python -m pytest -q bench/tests || failed=1

echo "== chaos smoke =="
python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 --seeds 3 \
    || failed=1

echo "== cluster smoke =="
# Multi-server failure domains: whole-server loss on a stage-per-server
# pipeline (replica restore + cross-server re-plan) and a DP sweep under
# a scripted partition window; nonzero on a hang or broken per-link byte
# accounting.  JSON artifacts land in cluster-chaos-*.json.
python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 \
    --servers 3 --seeds 3 --servers-lost 1 --iterations 3 \
    --json cluster-chaos-pp.json || failed=1
python -m repro.cli chaos toy-transformer --minibatch 9 --gpus 2 \
    --mode dp --servers 3 --seeds 2 --partition-at 0.001 \
    --partition-for 0.01 --iterations 2 --json cluster-chaos-dp.json \
    || failed=1

echo "== service smoke =="
# Seeded request storm through the hardened planning service: chaos and
# clean; exits nonzero on an unresolved request, a determinism mismatch
# or an excessive shed rate.
python -m repro.cli serve --requests 500 --seed 0 --chaos --intensity 1.0 \
    --check-determinism --max-shed-rate 0.35 --json service-chaos.json \
    || failed=1
python -m repro.cli serve --requests 200 --seed 1 \
    --check-determinism --max-shed-rate 0.10 --json service-clean.json \
    || failed=1

echo "== fleet smoke =="
# Multi-tenant fleet co-placement storms: a clean 2-server storm and a
# contended 1-server storm (mixed widths/shares; identity, partition AND
# time-slice placements; typed capacity sheds).  Exits nonzero on a
# leaked reservation, a determinism mismatch or an excessive shed rate.
# JSON artifacts land in fleet-*.json.
python -m repro.cli serve --requests 60 --seed 0 --fleet-servers 2 \
    --check-determinism --max-shed-rate 0.35 --json fleet-clean.json \
    || failed=1
python -m repro.cli serve --requests 80 --seed 1 --fleet-servers 1 \
    --workers 4 --check-determinism --max-shed-rate 0.5 \
    --json fleet-contended.json || failed=1

echo "== virt smoke =="
# Virtual-device binds: the same 4-logical-GPU plan bound identically,
# heterogeneously (2 fast + 2 slow), and oversubscribed onto 2 physical
# GPUs (deterministic time-slice); each bind is re-certified by the
# analyzer against per-device memory, then executed.  A chaos sweep over
# a heterogeneous bind that loses a device runs restarts and an elastic
# re-plan on scaled timing.  JSON artifacts land in virt-*.json.
python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
    --run --json virt-identity.json || failed=1
python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
    --hetero 1.5,1.5,0.75,0.75 --run --json virt-hetero.json || failed=1
python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
    --physical 2 --run --json virt-timeslice.json || failed=1
python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 --seeds 3 \
    --hetero 1.5,0.75 --devices-lost 1 --iterations 3 \
    --json virt-chaos-hetero.json || failed=1

echo "== trace smoke =="
# Record, invariant-check, and export a clean, a chaos and a ring trace;
# the CLI exits nonzero if the recorded timeline violates a runtime
# invariant.
python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
    --out trace-clean.json || failed=1
python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
    --chaos-seed 1 --out trace-chaos.json || failed=1
python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
    --ring 64 --out trace-ring.json || failed=1

echo "== trace overhead =="
# What tracing costs the bench warm-up runs (wall ratio, recorder ms per
# op); one pass pair keeps the script running.  Reports, never gates.
python scripts/trace_overhead.py --passes 1 || failed=1

exit "$failed"
