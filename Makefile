# Convenience targets for the reproduction.

PYTHON ?= python3
SCALE ?= 1.0
JOBS ?= 0

.PHONY: install test test-fast check bench perf experiments examples clean

install:
	pip install -e . --no-build-isolation || \
	  $(PYTHON) -c "import site, os; open(os.path.join(site.getsitepackages()[0], 'repro-dev.pth'), 'w').write(os.path.abspath('src'))"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

check:
	$(PYTHON) -m repro check

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

perf:
	$(PYTHON) perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

experiments:
	$(PYTHON) -m repro experiments all --scale $(SCALE) --jobs $(JOBS) \
		--output-dir results/tables

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/custom_workload.py
	$(PYTHON) examples/input_sensitivity.py 134.perl 0.3
	$(PYTHON) examples/hybrid_predictor.py 132.ijpeg 0.3
	$(PYTHON) examples/spec_study.py 126.gcc 0.3
	$(PYTHON) examples/critical_path.py 132.ijpeg 70

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
