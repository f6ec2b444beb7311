# Convenience targets for the DDoScovery reproduction.

# Every recipe imports the package from this checkout's src/, so the
# targets work without `make install`; an existing PYTHONPATH is kept.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast conformance conformance-scenarios ci ablations paper-artefacts perfbench-check bench bench-perf profile sweep-smoke sweep-stability serve-smoke whatif-smoke dist-smoke examples artefacts clean

install:
	pip install -e '.[dev]' || python setup.py develop

test:
	pytest tests/

# Tier 1 only: the default addopts already deselect slow/conformance tests;
# this target just names the tier explicitly.
test-fast:
	pytest tests/ -m "not slow and not conformance"

# Full-window paper conformance: the CLI report (also written as an
# artefact) plus the conformance-marked pytest tier and the seed-stability
# sweep artefact; fails if any of the three committed reports changed.
conformance: sweep-stability conformance-scenarios
	python -m repro.cli conformance --jobs 0 --out benchmarks/results/CONFORMANCE.txt
	pytest tests/ -m conformance
	git diff --exit-code -- benchmarks/results/CONFORMANCE.txt \
		benchmarks/results/CONFORMANCE_scenarios.txt \
		benchmarks/results/SWEEP_seed_stability.txt

# Regenerate the sibling-paper scenario-family conformance artefact from
# the four scenario presets (conformance tier; see docs/SWEEPS.md).
conformance-scenarios:
	python scripts/conformance_scenarios.py

# What CI runs: fast tier, full conformance, the ablation and paper
# artefacts, the counterfactual smoke, the service smoke (the only gate
# that runs a job body in a daemon pool worker), the distributed smoke,
# the repo benchmark's own checks, every example, and a compile pass.
# It ends by failing if any gate rewrote a committed result or golden.
ci: test-fast conformance ablations paper-artefacts whatif-smoke serve-smoke dist-smoke perfbench-check examples
	python -m compileall -q src
	git diff --exit-code -- benchmarks/results tests/goldens

# Re-run the deterministic ablation benchmarks and fail if any committed
# benchmarks/results/ABL_*.txt artefact no longer matches what they write.
ablations:
	python -m pytest benchmarks/test_ablation_*.py --benchmark-disable
	git diff --exit-code -- benchmarks/results/ABL_*.txt

# Re-run the deterministic paper and extension benchmarks (every
# benchmarks/test_*.py except the host-timing perf files and the ablations
# above) and fail if any committed result file they write no longer
# matches.  SWEEP_seed_stability.txt is `make conformance`'s output.
PAPER_BENCHMARKS = $(filter-out benchmarks/test_perf_% benchmarks/test_ablation_%,$(wildcard benchmarks/test_*.py))

paper-artefacts:
	python -m pytest $(PAPER_BENCHMARKS) --benchmark-disable
	git diff --exit-code -- benchmarks/results/T*.txt benchmarks/results/F*.txt \
		benchmarks/results/S3_*.txt benchmarks/results/EXT_*.txt \
		benchmarks/results/AI_*.txt benchmarks/results/AJ_*.txt

# Run every perfbench workload once with all its output checks, the
# traced replay included (about 20 s; see perfbench/README.md).
perfbench-check:
	python3 -m pytest perfbench/tests -q

bench:
	pytest benchmarks/ --benchmark-only

bench-perf:
	pytest benchmarks/test_perf_pipeline.py benchmarks/test_perf_parallel.py --benchmark-only

# Regenerate the checked-in full-window profile (cache bypassed, so the
# simulation itself is measured; see docs/OBSERVABILITY.md).
profile:
	python -m repro.cli profile --seed 0 --out benchmarks/results/PROFILE_seed0.txt

# Tiny 2-seed x 2-scale ensemble through every sweep layer (tier-1 budget;
# see docs/SWEEPS.md).
sweep-smoke:
	python -m repro.cli sweep run --preset smoke --jobs 2 --resume

# Regenerate the checked-in seed-stability artefact from the 3-seed
# reduced-scale ensemble (conformance tier).
sweep-stability:
	python -m repro.cli sweep run --preset seed-robustness --jobs 0 --resume
	python -m repro.cli sweep report --preset seed-robustness --out benchmarks/results/SWEEP_seed_stability.txt

# The sav-adoption paired what-if on the pinned seed0-small window:
# asserts the zero-delta fingerprint guarantee and that the baseline leg
# is a cache hit of the pinned golden study, then writes
# benchmarks/results/WHATIF_sav.txt (see docs/COUNTERFACTUALS.md) and
# fails if that committed report changed.
whatif-smoke:
	python scripts/whatif_smoke.py
	git diff --exit-code -- benchmarks/results/WHATIF_sav.txt

# Boot the service daemon on an ephemeral port, run a seed0-small study
# job end-to-end over HTTP, diff the fetched artifact against the batch
# path and the committed goldens, then SIGTERM (see docs/SERVICE.md).
serve-smoke:
	python scripts/serve_smoke.py

# Boot a coordinator plus two worker subprocesses, distribute the
# seed0-small sweep, require the merged report byte-identical to serial
# and >= 1.5x wall-clock at 2 workers, and print the timing record; it
# writes no tracked file (`python scripts/dist_smoke.py >
# benchmarks/results/PERF_dist.txt` refreshes the committed record; see
# docs/DISTRIBUTED.md).
dist-smoke:
	python scripts/dist_smoke.py

# Run all ten examples (telescope_detection takes about 2 min).
examples:
	python examples/quickstart.py
	python examples/telescope_detection.py
	python examples/carpet_bombing.py
	python examples/booter_market.py
	python examples/bot_census.py
	python examples/consensus_trends.py
	python examples/federated_join.py
	python examples/full_reproduction.py
	python examples/sav_measurement.py
	python examples/vendor_report.py

artefacts:
	python -m repro.cli run --out artefacts/

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
