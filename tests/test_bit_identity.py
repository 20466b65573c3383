"""Pinned digests of seeded dense carriers and what is read from them.

The digests were taken from the tuple-backed carriers that preceded the
ndarray ones.  Any change that reorders a level slice, alters a draw or
moves a float in the last bit fails here, so speed-ups must keep every
seeded result bit-identical.
"""
import hashlib

import numpy as np

from bernsum.cli import main
from bernsum.pmf import SumPmf, cross_moment, sum_map
from bernsum.polytope import decompose, exchangeable_pmf
from bernsum.sampling import RngStream, sample_Fd_uniform, sample_polytope_uniform


def gapped_pmf(d: int) -> SumPmf:
    """Float sum law with weights k + 1 and level 2 left empty."""
    weights = [0 if k == 2 else k + 1 for k in range(d + 1)]
    total = sum(weights)
    return SumPmf([w / total for w in weights])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


PINS = {
    "sample_polytope_uniform": "5c80a88494524c4ba2f7335f2cde2e6fb73b315f5aded529b727a372d8e74b70",
    "Fd_uniform": "87e81c1504168bce7dd401af79cfb684afd8e741c2f399718def3f7987a62c12",
    "exchangeable_pmf": "acfe3900693c9c502a56d9e95b375a30e9b69e4a747a7e74141e867587770c4a",
    "reads": "7f9265fd8d3bd185c937fb97f3012dc290df86b579455718683f8a2f63e7beba",
    "cli_sample": "c1c210175895a270358b0f1dd8bf0bf17af079103ff4e94d7fad1bb367e3d288",
}


def fiber_draws():
    p = gapped_pmf(10)
    g = RngStream(2024, 3).generator()
    return p, [sample_polytope_uniform(p, g) for _ in range(3)]


def test_fiber_draws_d10():
    _, draws = fiber_draws()
    assert digest(*(f.values for f in draws)) == PINS["sample_polytope_uniform"]


def test_fiber_reads_d10():
    p, draws = fiber_draws()
    parts = []
    for f in draws:
        parts.append(sum_map(f).values)
        parts.extend(b for b in decompose(f, p) if b)
        parts.append([cross_moment(f, [1, 4, 7]), cross_moment(f, range(1, 11))])
    assert digest(*parts) == PINS["reads"]


def test_Fd_draws_d10():
    g = RngStream(2025, 0).generator()
    draws = [sample_Fd_uniform(10, g) for _ in range(3)]
    assert digest(*(f.values for f in draws)) == PINS["Fd_uniform"]


def test_exchangeable_d12():
    assert digest(exchangeable_pmf(gapped_pmf(12)).values) == PINS["exchangeable_pmf"]


def test_cli_sample_d6(capsys):
    p = "[" + ", ".join(repr(v) for v in gapped_pmf(6).values) + "]"
    assert main(["sample", "--p", p, "-n", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS["cli_sample"]
