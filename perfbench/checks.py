"""Checks that do not trust the lifter: NumPy cross-check and determinism.

* :class:`ReferenceCheck` evaluates every solved program with
  ``repro.taco.evaluate`` on fresh inputs drawn from the workload seed, at
  the kernel's default sizes (well above the verifier's ``size_bound=2``),
  and compares the result with the kernel's NumPy reference
  (``Benchmark.reference``) — never with the lifter's own verifier.
* :func:`determinism_problems` compares per-kernel outcome counts across
  the passes of a run and with an earlier run of the same code and seed.
* :func:`provenance` is the block printed beside every result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Relative/absolute tolerance of the float NumPy comparison.
REFERENCE_TOLERANCE = 1e-9


class ReferenceCheck:
    """Checks (kernel, program) pairs against the NumPy reference, once each."""

    def __init__(self, seed: int) -> None:
        from repro.suite import real_world_benchmarks

        self._seed = seed
        self._benchmarks = {b.name: b for b in real_world_benchmarks()}
        self._verdicts: Dict[Tuple[str, str], str] = {}

    def problem(self, kernel: str, program: str) -> str:
        """'' when *program* agrees with the reference, else why not."""
        key = (kernel, program)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(kernel, program)
        return self._verdicts[key]

    def _check(self, kernel: str, program: str) -> str:
        from repro.core.io_examples import IOExampleGenerator
        from repro.taco import evaluate, parse_program

        benchmark = self._benchmarks[kernel]
        if benchmark.reference is None:
            return "no NumPy reference"
        digest = hashlib.sha256(f"{self._seed}:{kernel}".encode()).digest()
        generator = IOExampleGenerator(
            benchmark.task(), seed=int.from_bytes(digest[:8], "big")
        )
        example = generator.generate_one(avoid_zero=benchmark.divides_by_input)
        parsed = parse_program(program)
        names = {access.name for access in parsed.rhs.tensors()}
        try:
            actual = evaluate(
                parsed,
                {name: example.inputs[name] for name in names},
                mode="exact",
                output_shape=example.output_shape(),
            )
        except Exception as error:  # noqa: BLE001 - a failed evaluation is a verdict
            return f"evaluation failed: {type(error).__name__}: {error}"
        arguments = {
            name: np.array(value, dtype=float) if isinstance(value, np.ndarray)
            else float(value)
            for name, value in example.inputs.items()
        }
        expected = np.asarray(benchmark.reference(arguments), dtype=float)
        actual = np.asarray(actual, dtype=float)
        if actual.shape != expected.shape or not np.allclose(
            actual, expected, rtol=REFERENCE_TOLERANCE, atol=REFERENCE_TOLERANCE
        ):
            return f"disagrees with the NumPy reference: {program}"
        return ""


# ---------------------------------------------------------------------- #
# Determinism
# ---------------------------------------------------------------------- #
def source_digest(root: Path) -> str:
    """A digest of the program's sources, so fingerprints follow the code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _differences(
    earlier: Dict[str, Dict[str, object]], later: Dict[str, Dict[str, object]]
) -> List[str]:
    return [
        f"{kernel}.{name}: {earlier[kernel][name]!r}, then {value!r}"
        for kernel, fields in later.items()
        for name, value in fields.items()
        if name in earlier.get(kernel, {}) and earlier[kernel][name] != value
    ]


def determinism_problems(
    prints: List[Dict[str, Dict[str, object]]], path: Path
) -> List[str]:
    """Passes must agree with each other and with earlier runs' record.

    *prints* holds one per-kernel fingerprint per pass; *path* is the record
    of earlier runs of the same code and seed.  Fields recorded by only one
    side (the span counts exist in traced passes only) are not compared.
    The record keeps the union of fields seen, and is written only when
    nothing differs.
    """
    merged: Dict[str, Dict[str, object]] = {}
    problems = []
    for counts in prints:
        problems += [f"between passes: {d}" for d in _differences(merged, counts)]
        for kernel, fields in counts.items():
            merged.setdefault(kernel, {}).update(fields)
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems += [f"between runs: {d}" for d in _differences(stored, merged)]
    if merged and not problems:
        for kernel, fields in merged.items():
            stored.setdefault(kernel, {}).update(fields)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    return problems


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def git_sha(root: Path) -> Optional[str]:
    """HEAD of *root*'s own git repository, if it is one (no upward search)."""
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def provenance(
    root: Path, workload: str, seed: int, seconds: float, executor: str
) -> Dict[str, object]:
    from repro.lifting.registry import default_limits, default_verifier_config
    from repro.suite import real_world_benchmarks

    kernels = hashlib.sha256()
    for benchmark in real_world_benchmarks():
        kernels.update(benchmark.name.encode())
        kernels.update(benchmark.c_source.encode())
    limits = default_limits(None)
    verifier = default_verifier_config()
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "kernels": len(real_world_benchmarks()),
        "kernel_digest": kernels.hexdigest()[:16],
        "limits": {
            "max_expansions": limits.max_expansions,
            "max_candidates": limits.max_candidates,
            "timeout_seconds": limits.timeout_seconds,
        },
        "verifier": {
            "size_bound": verifier.size_bound,
            "value_set": list(verifier.value_set),
            "exhaustive_cap": verifier.exhaustive_cap,
            "sampled_checks": verifier.sampled_checks,
        },
        "executor": executor,
    }
