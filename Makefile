PYTHONPATH := src
export PYTHONPATH

.PHONY: check lint typecheck test regen-golden analyze analyze-smoke chaos-smoke cluster-smoke trace-smoke service-smoke virt-smoke fleet-smoke

# Full gate: lint + typecheck + tier-1 tests.  Lint/typecheck legs skip
# themselves (with a message) when ruff/mypy are not installed.
check:
	bash scripts/check.sh

lint:
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed, skipping lint"; fi
	python -m repro.lint

typecheck:
	@if command -v mypy >/dev/null 2>&1; then mypy src/repro/analysis; \
	else echo "mypy not installed, skipping typecheck"; fi

test:
	python -m pytest -x -q tests/

# Rewrite every golden file under tests/golden/ (CLI corpus, traces and
# the verdict, baseline-plan, phase, analytics, search and chaos pins)
# from a fresh recording.  Only when a change legitimately moves one:
# review the diff and explain it with the change.
regen-golden:
	python scripts/regen_golden.py

# Convenience: statically verify the headline schedule.
analyze:
	python -m repro.cli check gpt2 --minibatch 64 --mode pp

# Analyzer smoke: project linter + the full static pass set (races,
# lifetime, capacity with its parametric certificates) over the CNN zoo
# in both modes, leaving machine-readable diagnostics in
# analyze-<model>-<mode>.json.
analyze-smoke:
	python -m repro.lint
	for model in tiny-cnn resnet1k vgg416; do \
	    for mode in pp dp; do \
	        python -m repro.cli check $$model --minibatch 16 --mode $$mode \
	            --json analyze-$$model-$$mode.json || exit 1; \
	    done; \
	done

# Quick fault-injection sweep on the toy model: exits nonzero if any
# seed hangs (watchdog) or breaks byte accounting.
chaos-smoke:
	python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 --seeds 3

# Cluster chaos smoke: multi-server failure domains.  A stage-per-server
# pipeline losing a whole server per seed (replica restore + cross-server
# re-plan + stage shrink over real network links), and a data-parallel
# sweep under a scripted partition window (bounded stall, then heal).
# Exits nonzero on a hang or broken per-network-link byte accounting;
# machine-readable outcomes land in cluster-chaos-*.json.
cluster-smoke:
	python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 \
	    --servers 3 --seeds 3 --servers-lost 1 --iterations 3 \
	    --json cluster-chaos-pp.json
	python -m repro.cli chaos toy-transformer --minibatch 9 --gpus 2 \
	    --mode dp --servers 3 --seeds 2 --partition-at 0.001 \
	    --partition-for 0.01 --iterations 2 --json cluster-chaos-dp.json

# Service smoke: a seeded 500-request chaos storm through the hardened
# planning service, plus a no-chaos storm.  Exits nonzero if any request
# is left unresolved, if two identically-seeded runs disagree on any
# metric (bit-identity), or if more than 35% of the storm is shed.
# Machine-readable outcomes land in service-*.json.
service-smoke:
	python -m repro.cli serve --requests 500 --seed 0 --chaos \
	    --intensity 1.0 --check-determinism --max-shed-rate 0.35 \
	    --json service-chaos.json
	python -m repro.cli serve --requests 200 --seed 1 \
	    --check-determinism --max-shed-rate 0.10 --json service-clean.json

# Fleet smoke: multi-tenant co-placement storms on a shared fleet.  A
# clean 2-server storm (mixed widths and memory shares, bit-identity
# checked) and a deliberately contended 1-server storm that must reach
# all three placement kinds (identity / partition / time-slice) and
# shed the overflow with a typed reason.  Exits nonzero on a leaked
# reservation, a determinism mismatch or an excessive shed rate;
# machine-readable outcomes land in fleet-*.json.
fleet-smoke:
	python -m repro.cli serve --requests 60 --seed 0 --fleet-servers 2 \
	    --check-determinism --max-shed-rate 0.35 --json fleet-clean.json
	python -m repro.cli serve --requests 80 --seed 1 --fleet-servers 1 \
	    --workers 4 --check-determinism --max-shed-rate 0.5 \
	    --json fleet-contended.json

# Virtual-device smoke: one 4-logical-GPU plan bound three ways --
# identity (bit-identical), heterogeneous 2-fast/2-slow, and
# oversubscribed onto 2 physical GPUs (time-slice) -- each executed and
# re-certified by the analyzer against per-device memory, plus a chaos
# sweep over a heterogeneous bind that loses a device (restarts and an
# elastic re-plan on scaled timing).  Exits nonzero if any bind is
# rejected or any run fails; machine-readable outcomes land in
# virt-*.json.
virt-smoke:
	python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
	    --run --json virt-identity.json
	python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
	    --hetero 1.5,1.5,0.75,0.75 --run --json virt-hetero.json
	python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \
	    --physical 2 --run --json virt-timeslice.json
	python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 \
	    --seeds 3 --hetero 1.5,0.75 --devices-lost 1 --iterations 3 \
	    --json virt-chaos-hetero.json

# Record a traced run (clean, chaos and a 64-event ring), invariant-check
# it, and export Perfetto JSON; exits nonzero if the trace breaks a
# runtime invariant.
trace-smoke:
	python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
	    --out trace-clean.json --text
	python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
	    --chaos-seed 1 --out trace-chaos.json
	python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \
	    --ring 64 --out trace-ring.json
