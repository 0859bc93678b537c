import math

import numpy as np
import pytest

from mexneedlets import cubature_rule, cubature_to_csv, real_sh_matrix
from mexneedlets.harmonics import sh_index, sph_to_xyz


def test_constant_exactness():
    rule = cubature_rule(0)
    assert float(np.sum(rule.weights)) == pytest.approx(4 * math.pi, abs=1e-12)
    assert np.all(rule.weights > 0)


def test_degree_eight_exactness():
    rule = cubature_rule(8)
    res = rule.grid.adjoint(rule.grid.point_weights(), 8)
    worst = max(np.max(np.abs(res[l * l:(l + 1) * (l + 1)])) for l in range(1, 9))
    assert worst < 1e-10
    assert float(np.sum(rule.weights)) == pytest.approx(4 * math.pi, abs=1e-12)


def test_normalized_harmonic_energy():
    # independent dense product quadrature as the oracle
    rule = cubature_rule(8)
    Y = real_sh_matrix(4, rule.nodes)[:, sh_index(4, 4)]
    got = float(np.dot(rule.weights, Y ** 2))

    x, w = np.polynomial.legendre.leggauss(50)
    n_phi = 101
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    nodes = np.concatenate([sph_to_xyz(np.full(n_phi, t), phis) for t in np.arccos(x)])
    weights = np.repeat(w * 2 * math.pi / n_phi, n_phi)
    Yo = real_sh_matrix(4, nodes)[:, sh_index(4, 4)]
    oracle = float(np.dot(weights, Yo ** 2))

    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_negative_control_beyond_degree():
    # exactness does not extend: some harmonic two degrees up fails for
    # even m; odd m carries one bonus degree in theta and fails at m+3
    for m in (4, 8, 10, 12):
        rule = cubature_rule(m)
        res = rule.grid.adjoint(rule.grid.point_weights(), m + 2)
        l = m + 2
        assert np.max(np.abs(res[l * l:(l + 1) * (l + 1)])) > 1e-6
    rule = cubature_rule(9)
    res = rule.grid.adjoint(rule.grid.point_weights(), 12)
    assert np.max(np.abs(res[144:169])) > 1e-6


def test_parameter_guards():
    with pytest.raises(ValueError):
        cubature_rule(-1)
    with pytest.raises(ValueError):
        cubature_rule(513)


def test_csv_export(tmp_path):
    rule = cubature_rule(2)
    path = tmp_path / "rule.csv"
    cubature_to_csv(rule, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,weight"
    assert len(lines) == 1 + rule.n_nodes
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 4 and first[3] > 0
