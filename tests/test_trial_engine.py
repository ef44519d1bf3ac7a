"""The chunked trial engine against the per-trial loops it replaced.

The oracles below are the harness loops as they were before the engine: one
``trial_rng(seed, k)`` per trial, single-operator kernel calls, and a running
worst that is replaced only on a strict ``>``.  They look up the draws as
``qft.<name>`` at call time, so a monkeypatched draw reaches them and the
engine alike.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from qsobolev import cli, embedding, linalg, qft, sobolev
from qsobolev.embedding import compute_exponents, multiplier_norm, verify_embedding_chain
from qsobolev.groups import PhaseFunction, l_q_norm, lq_table_norm
from qsobolev.linalg import as_operator, schatten_norm, singular_values, trace_pairing
from qsobolev.qft import (
    CHUNK_BYTES,
    HausdorffYoungReport,
    chunk_length,
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from qsobolev.sobolev import (
    NormAxiomReport,
    PairingBoundReport,
    SobolevSpec,
    make_test_element,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_analytic_bound,
    pairing_bound_estimate,
    phi_isometry_check,
    phi_map,
    sobolev_norm,
    verify_norm_axioms,
)
from qsobolev.weyl import make_weyl_system, weyl_operator

EXPONENTS = (1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0)
#: Fields whose exact value is 0 and whose batched form sums in another order
#: (the Frobenius norms of the round trips), so only an absolute bound holds.
#: Every other float, noise-level ones included, is computed in the loop's order.
ZERO_FIELDS = frozenset({"operator_roundtrip", "function_roundtrip"})
ULPS = 4
ZERO_ATOL = 1e-15


# -- the per-trial loops, kept as oracles -------------------------------------


def plancherel_loop(system, trials, seed):
    worst = 0.0
    for k in range(trials):
        T = qft.random_operator(qft.trial_rng(seed, k), system.N)
        s2 = schatten_norm(T, 2.0)
        if s2 == 0.0:
            continue
        l2 = l_q_norm(qft_forward(system, T), 2.0)
        worst = max(worst, abs(l2 - s2) / s2)
    return worst


def roundtrips_loop(system, trials, seed):
    worst_op = 0.0
    worst_fn = 0.0
    for k in range(trials):
        rng = qft.trial_rng(seed, k)
        T = qft.random_operator(rng, system.N)
        norm_T = np.linalg.norm(T)
        if norm_T > 0.0:
            back = qft_inverse(system, qft_forward(system, T))
            worst_op = max(worst_op, np.linalg.norm(back - T) / norm_T)
        f = qft.random_phase_function(rng, system)
        norm_f = np.linalg.norm(f.values)
        if norm_f > 0.0:
            again = qft_forward(system, qft_inverse(system, f))
            worst_fn = max(worst_fn, np.linalg.norm(again.values - f.values) / norm_f)
    return {"operator_roundtrip": worst_op, "function_roundtrip": worst_fn}


def hausdorff_young_loop(system, p, direction, trials, seed):
    q = conjugate_exponent(p)
    worst = 0.0
    witness = None
    skipped = 0
    for k in range(trials):
        rng = qft.trial_rng(seed, k)
        if direction == "forward":
            T = qft.random_operator(rng, system.N)
            denom = schatten_norm(T, p)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = l_q_norm(qft_forward(system, T), q) / denom
        else:
            f = qft.random_phase_function(rng, system)
            denom = l_q_norm(f, p)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = schatten_norm(qft_inverse(system, f), q) / denom
        if ratio > worst:
            worst = ratio
            witness = k
    return HausdorffYoungReport(
        p=p,
        q=q,
        direction=direction,
        trials=trials,
        seed=seed,
        worst_ratio=worst,
        witness_available=witness is not None,
        witness_index=witness,
        skipped=skipped,
    )


def phi_isometry_loop(system, spec, trials, seed):
    multiplier = sobolev.bessel_multiplier(spec.weight, spec.s, spec.homogeneous)
    points = system.group.coordinates.T.tolist()
    worst = 0.0
    for k in range(trials):
        T = qft.random_operator(qft.trial_rng(seed, k), system.N)
        via_fft = sobolev_norm(system, T, spec)
        pairings = np.array([trace_pairing(T, weyl_operator(system, xi)) for xi in points])
        direct = lq_table_norm(multiplier * pairings, spec.q, system.group.dual_mass)
        worst = max(worst, abs(direct - via_fft))
    return worst


def norm_axioms_loop(system, spec, trials, seed, triangle_tol=1e-10, monotone_tol=1e-12):
    base = SobolevSpec(s=spec.s, p=spec.p, weight=spec.weight, homogeneous=False)
    stronger = SobolevSpec(s=2.0 * spec.s, p=spec.p, weight=spec.weight, homogeneous=False)
    hom = SobolevSpec(s=spec.s, p=spec.p, weight=spec.weight, homogeneous=True)
    worst_hom_rel = 0.0
    worst_tri = -math.inf
    tri_viol = 0
    worst_iso = 0.0
    mono_viol = 0
    worst_mono = -math.inf
    dom_viol = 0
    worst_dom = -math.inf
    definite_viol = 0
    for k in range(trials):
        rng = qft.trial_rng(seed, k)
        T = qft.random_operator(rng, system.N)
        S = qft.random_operator(rng, system.N)
        c = complex(rng.standard_normal(), rng.standard_normal())
        nT = sobolev_norm(system, T, spec)
        nS = sobolev_norm(system, S, spec)
        if nT == 0.0 and np.any(T != 0.0):
            definite_viol += 1
        if nT > 0.0:
            scaled = sobolev_norm(system, c * T, spec)
            worst_hom_rel = max(worst_hom_rel, abs(scaled - abs(c) * nT) / (abs(c) * nT))
        if nT + nS > 0.0:
            excess = (sobolev_norm(system, T + S, spec) - (nT + nS)) / (nT + nS)
            worst_tri = max(worst_tri, excess)
            if excess > triangle_tol:
                tri_viol += 1
        worst_iso = max(worst_iso, abs(l_q_norm(phi_map(system, T, spec), spec.q) - nT))
        n_base = sobolev_norm(system, T, base)
        n_stronger = sobolev_norm(system, T, stronger)
        if n_base > 0.0:
            excess = (n_base - n_stronger) / n_base
            worst_mono = max(worst_mono, excess)
            if excess > monotone_tol:
                mono_viol += 1
        n_hom = sobolev_norm(system, T, hom)
        if n_base > 0.0:
            excess = (n_hom - n_base) / n_base
            worst_dom = max(worst_dom, excess)
            if excess > monotone_tol:
                dom_viol += 1
    return NormAxiomReport(
        N=system.N,
        s=spec.s,
        p=spec.p,
        homogeneous=spec.homogeneous,
        trials=trials,
        seed=seed,
        worst_homogeneity_rel=worst_hom_rel,
        worst_triangle_excess=worst_tri,
        triangle_violations=tri_viol,
        worst_isometry_abs=worst_iso,
        s_monotonicity_violations=mono_viol,
        worst_s_monotonicity_excess=worst_mono,
        hom_dominance_violations=dom_viol,
        worst_hom_dominance_excess=worst_dom,
        definiteness_violations=definite_viol,
    )


def pairing_loop(system, p, s, weight, sign, trials, seed, tolerance=1e-10):
    p_prime = conjugate_exponent(p)
    q_prime = conjugate_exponent(p_prime)
    dual_spec = SobolevSpec(s=s, p=p_prime, weight=weight)
    bound = pairing_analytic_bound(system, p, s, weight, sign)
    worst = 0.0
    skipped = 0
    for k in range(trials):
        rng = qft.trial_rng(seed, k)
        T = qft.random_operator(rng, system.N)
        phi = qft.random_phase_function(rng, system)
        element = make_test_element(system, dual_spec, phi, sign)
        denom = schatten_norm(T, p) * element.negative_norm
        if denom == 0.0:
            skipped += 1
            continue
        worst = max(worst, abs(complex(trace_pairing(T, element.operator))) / denom)
    return PairingBoundReport(
        N=system.N,
        p=p,
        p_prime=p_prime,
        q_prime=q_prime,
        s=s,
        sign=sign,
        trials=trials,
        seed=seed,
        skipped=skipped,
        max_ratio=worst,
        analytic_bound=bound,
        satisfied=bool(worst <= bound * (1.0 + tolerance)),
    )


def embedding_loop(system, spec, alpha, beta_choice, trials, seed):
    """The measured fields of ``verify_embedding_chain`` (default tolerances)."""
    exponents = compute_exponents(alpha, spec.q, spec.s)
    sigma = exponents.sigma
    m_norm = multiplier_norm(spec.weight, spec.s, alpha, spec.homogeneous)
    out = dict(skipped=0, violations=0, link1_violations=0, link2_violations=0)
    max_link1 = max_link2 = max_ratio = 0.0
    ratios_corrected = []
    ratios_alternate = [] if exponents.beta_alternate_defined else None
    for k in range(trials):
        T = qft.random_operator(qft.trial_rng(seed, k), system.N)
        snorm = sobolev_norm(system, T, spec)
        if snorm == 0.0:
            out["skipped"] += 1
            continue
        f_sigma = l_q_norm(qft_forward(system, T), sigma)
        link1 = f_sigma / (m_norm * snorm)
        max_link1 = max(max_link1, link1)
        out["link1_violations"] += bool(link1 > 1.0 + 1e-12)
        s_sigma_prime = schatten_norm(T, exponents.beta_corrected)
        if f_sigma > 0.0:
            link2 = s_sigma_prime / f_sigma
            max_link2 = max(max_link2, link2)
            out["link2_violations"] += bool(link2 > 1.0 + 1e-10)
        ratios_corrected.append(s_sigma_prime / snorm)
        if ratios_alternate is not None:
            ratios_alternate.append(schatten_norm(T, exponents.beta_alternate) / snorm)
        used = ratios_corrected[-1] if beta_choice == "corrected" else ratios_alternate[-1]
        max_ratio = max(max_ratio, used)
        out["violations"] += bool(used > m_norm * (1.0 + 1e-10))
    return out | dict(
        max_ratio=max_ratio,
        max_link1_ratio=max_link1,
        max_link2_ratio=max_link2,
        ratios_corrected=tuple(ratios_corrected),
        ratios_alternate=None if ratios_alternate is None else tuple(ratios_alternate),
    )


def nondegeneracy_loop(system, spec, sign):
    K = system.group.size
    deltas = (PhaseFunction(system.group, row) for row in np.eye(K))
    V = np.stack([make_test_element(system, spec, phi, sign).operator.ravel() for phi in deltas])
    eigs = np.linalg.eigvalsh(V.conj() @ V.T)
    return int(np.sum(eigs > 1e-10 * max(float(eigs[-1]), 1.0))), float(eigs[0])


# -- harness pairs ------------------------------------------------------------


def _spec(system, homogeneous=False):
    weight = make_weight_euclidean(system.group)
    return SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight, homogeneous=homogeneous)


def _embedding_fields(report):
    """The fields of an embedding report that :func:`embedding_loop` measures."""
    d = report.to_dict()
    return {
        key: d[key]
        for key in (
            "skipped",
            "violations",
            "link1_violations",
            "link2_violations",
            "max_ratio",
            "max_link1_ratio",
            "max_link2_ratio",
            "ratios_corrected",
            "ratios_alternate",
        )
    }


def _hy(direction):
    return (
        lambda system, t, s: [r.to_dict() for r in verify_hausdorff_young(system, EXPONENTS, direction, t, s)],
        lambda system, t, s: [
            hausdorff_young_loop(system, p, direction, t, s).to_dict() for p in EXPONENTS
        ],
    )


def _pairing_pair():
    def batch(system, t, s):
        weight = make_weight_euclidean(system.group)
        reps = pairing_bound_estimate(system, 4.0, 1.0, weight, signs=(-1, 1), trials=t, seed=s)
        return [r.to_dict() for r in reps]

    def oracle(system, t, s):
        weight = make_weight_euclidean(system.group)
        return [pairing_loop(system, 4.0, 1.0, weight, sign, t, s).to_dict() for sign in (-1, 1)]

    return batch, oracle


def _embedding_pair(beta_choice, homogeneous):
    def batch(system, t, s):
        spec = _spec(system, homogeneous)
        return _embedding_fields(verify_embedding_chain(system, spec, 4.0, beta_choice, t, s))

    def oracle(system, t, s):
        return embedding_loop(system, _spec(system, homogeneous), 4.0, beta_choice, t, s)

    return batch, oracle


#: name -> (engine harness, per-trial oracle), each taking (system, trials, seed).
HARNESSES = {
    "plancherel": (
        lambda system, t, s: {"plancherel": verify_plancherel(system, t, s)},
        lambda system, t, s: {"plancherel": plancherel_loop(system, t, s)},
    ),
    "roundtrips": (verify_roundtrips, roundtrips_loop),
    "hausdorff-young-forward": _hy("forward"),
    "hausdorff-young-inverse": _hy("inverse"),
    "norm-axioms": (
        lambda system, t, s: verify_norm_axioms(system, _spec(system), t, s).to_dict(),
        lambda system, t, s: norm_axioms_loop(system, _spec(system), t, s).to_dict(),
    ),
    "norm-axioms-homogeneous": (
        lambda system, t, s: verify_norm_axioms(system, _spec(system, True), t, s).to_dict(),
        lambda system, t, s: norm_axioms_loop(system, _spec(system, True), t, s).to_dict(),
    ),
    "phi-isometry": (
        lambda system, t, s: {"phi_isometry": phi_isometry_check(system, _spec(system), t, s)},
        lambda system, t, s: {"phi_isometry": phi_isometry_loop(system, _spec(system), t, s)},
    ),
    "pairing": _pairing_pair(),
    "embedding-corrected": _embedding_pair("corrected", False),
    "embedding-alternate-homogeneous": _embedding_pair("alternate", True),
}


def assert_matches(batch, oracle, path="", field=""):
    """Counts, indices and flags equal; floats within ULPS (ZERO_ATOL for zero fields)."""
    if isinstance(oracle, dict):
        assert isinstance(batch, dict) and batch.keys() == oracle.keys(), path
        for key in oracle:
            assert_matches(batch[key], oracle[key], f"{path}.{key}", key)
    elif isinstance(oracle, (list, tuple)):
        assert len(batch) == len(oracle), path
        for i, (b, o) in enumerate(zip(batch, oracle)):
            assert_matches(b, o, f"{path}[{i}]", field)
    elif isinstance(oracle, float):
        assert isinstance(batch, float), path
        if field in ZERO_FIELDS:
            assert abs(batch - oracle) <= ZERO_ATOL, (path, batch, oracle)
        elif batch != oracle:
            gap = abs(batch - oracle)
            assert gap <= ULPS * np.spacing(max(abs(batch), abs(oracle))), (path, batch, oracle)
    else:
        assert batch == oracle and type(batch) is type(oracle), (path, batch, oracle)


@pytest.fixture
def chunk_of(monkeypatch):
    """Set ``CHUNK_BYTES`` so that a chunk holds ``length`` trials at dimension N."""

    def set_length(N, length):
        monkeypatch.setattr(qft, "CHUNK_BYTES", length * 16 * N * N)
        assert chunk_length(N) == length

    return set_length


def trial_counts(chunk):
    return (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)


# -- the engine against the oracles --------------------------------------------


class TestOracles:
    @pytest.mark.parametrize("name", sorted(HARNESSES))
    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_small_chunks(self, name, N, seed, chunk_of):
        chunk_of(N, 4)
        batch, oracle = HARNESSES[name]
        system = make_weyl_system(N)
        for trials in trial_counts(4):
            assert_matches(batch(system, trials, seed), oracle(system, trials, seed))

    @pytest.mark.parametrize("name", sorted(HARNESSES))
    def test_default_chunk_at_N8(self, name):
        batch, oracle = HARNESSES[name]
        system = make_weyl_system(8)
        assert chunk_length(8) == 128
        for trials in trial_counts(128):
            assert_matches(batch(system, trials, 3), oracle(system, trials, 3))

    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_nondegeneracy_stacked_deltas(self, N, sign):
        system = make_weyl_system(N)
        spec = SobolevSpec(s=1.0, p=4.0 / 3.0, weight=make_weight_euclidean(system.group))
        report = nondegeneracy_check(system, spec, sign=sign)
        rank, min_eigenvalue = nondegeneracy_loop(system, spec, sign)
        assert report.rank == rank == N * N
        assert_matches(report.min_eigenvalue, min_eigenvalue)


@pytest.fixture
def zero_draws(monkeypatch):
    """Trial indices whose operator and phase-function draws become zero.

    The real draw still runs first, so every later draw of the trial sees the
    stream it would see without the patch.
    """
    zeros = set()
    current = {}
    real_rng, real_operator, real_phase = qft.trial_rng, qft.random_operator, qft.random_phase_function

    def trial_rng(seed, k):
        current["k"] = k
        return real_rng(seed, k)

    def random_operator(rng, n, kind="mixed"):
        T = real_operator(rng, n, kind)
        return np.zeros_like(T) if current["k"] in zeros else T

    def random_phase_function(rng, system, kind="mixed"):
        f = real_phase(rng, system, kind)
        return f.with_values(np.zeros_like(f.values)) if current["k"] in zeros else f

    for module in (qft, sobolev, embedding):
        for fn in (trial_rng, random_operator, random_phase_function):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, fn)
    return zeros


class TestSkippedTrials:
    @pytest.mark.parametrize("name", sorted(HARNESSES))
    @pytest.mark.parametrize("zero_at", [{0}, {2, 5}, {9}, set(range(10))], ids=["first", "two", "last", "all"])
    def test_zero_draws_match_oracle(self, name, zero_at, zero_draws, chunk_of):
        chunk_of(3, 4)
        zero_draws.update(zero_at)
        batch, oracle = HARNESSES[name]
        system = make_weyl_system(3)
        assert_matches(batch(system, 10, 1), oracle(system, 10, 1))

    def test_skip_counts_and_witness(self, zero_draws, chunk_of):
        chunk_of(3, 4)
        system = make_weyl_system(3)
        zero_draws.update({1, 4})
        for rep in verify_hausdorff_young(system, EXPONENTS, "forward", 10, 1):
            assert rep.skipped == 2
            assert rep.witness_available and rep.witness_index not in (1, 4)
        zero_draws.update(range(10))
        for direction in ("forward", "inverse"):
            for rep in verify_hausdorff_young(system, EXPONENTS, direction, 10, 1):
                assert rep.skipped == 10 and rep.worst_ratio == 0.0
                assert not rep.witness_available and rep.witness_index is None
        spec = _spec(system)
        chain = verify_embedding_chain(system, spec, 4.0, trials=10, seed=1)
        assert chain.skipped == 10 and chain.ratios_corrected == () and chain.max_ratio == 0.0
        axioms = verify_norm_axioms(system, spec, 10, 1)
        assert axioms.worst_triangle_excess == -math.inf and axioms.triangle_violations == 0
        (pair,) = pairing_bound_estimate(system, 4.0, 1.0, spec.weight, trials=10, seed=1)
        assert pair.skipped == 10 and pair.max_ratio == 0.0 and pair.satisfied


# -- chunking -----------------------------------------------------------------


class TestChunking:
    def test_budget(self):
        assert CHUNK_BYTES == 128 * 1024

    @pytest.mark.parametrize("N, length", [(8, 128), (32, 8), (64, 2), (91, 1), (2048, 1)])
    def test_chunk_length(self, N, length):
        assert chunk_length(N) == length

    @pytest.mark.parametrize("name", sorted(HARNESSES))
    def test_ragged_chunks_equal_one_chunk(self, name, monkeypatch):
        batch = HARNESSES[name][0]
        system = make_weyl_system(3)
        one_chunk = batch(system, 10, 5)
        monkeypatch.setattr(qft, "CHUNK_BYTES", 3 * 16 * 9)  # chunks of 3, 3, 3 and 1
        assert chunk_length(3) == 3
        assert batch(system, 10, 5) == one_chunk

    def test_trials_validated_by_engine(self):
        with pytest.raises(ValueError, match="trials"):
            qft.run_trials(4, 0, 0, qft.operator_draw(make_weyl_system(4)), lambda T: (T,))


# -- draw and decomposition counts --------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.<name>`` through every module that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (linalg, qft, sobolev, embedding):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _run_cli(argv, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv + ["--out", str(tmp_path / "report.json")])


class TestDrawCounts:
    @pytest.mark.parametrize("command", ["hausdorff-young", "pairing"])
    def test_cli_defaults_draw_each_trial_once(self, command, monkeypatch, tmp_path):
        draws = _count_calls(monkeypatch, qft, "trial_rng")
        assert _run_cli([command], tmp_path) == 0
        # 100 trials per direction; 200 trials shared by both signs.
        assert len(draws) == 200

    def test_hausdorff_young_decomposes_once_per_chunk(self, monkeypatch, tmp_path):
        svds = _count_calls(monkeypatch, linalg, "singular_values")
        assert _run_cli(["hausdorff-young"], tmp_path) == 0
        assert len(svds) == 2  # one chunk per direction
        svds.clear()
        system = make_weyl_system(8)
        for direction in ("forward", "inverse"):
            verify_hausdorff_young(system, EXPONENTS, direction, 300, 0)
        assert len(svds) == 2 * 3

    @pytest.mark.parametrize(
        "run",
        [
            lambda system: verify_plancherel(system, 300, 0),
            lambda system: pairing_bound_estimate(
                system, 4.0, 1.0, make_weight_euclidean(system.group), (-1, 1), 300, 0
            ),
            lambda system: verify_embedding_chain(system, _spec(system), 4.0, trials=300, seed=0),
        ],
        ids=["plancherel", "pairing", "embedding"],
    )
    def test_one_decomposition_per_chunk(self, run, monkeypatch):
        svds = _count_calls(monkeypatch, linalg, "singular_values")
        run(make_weyl_system(8))
        assert len(svds) == 3  # 300 trials in chunks of 128


# -- stacked kernels ----------------------------------------------------------


class TestStackedKernels:
    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    def test_stack_equals_single_calls(self, N):
        system = make_weyl_system(N, "symmetric")
        Ts = np.stack([qft.random_operator(qft.trial_rng(N, k), N) for k in range(7)])
        fs = np.stack([qft.random_phase_function(qft.trial_rng(N, k), system).values for k in range(7)])
        stacked_f = PhaseFunction(system.group, fs)
        svals = singular_values(Ts)
        forward = qft_forward(system, Ts).values
        inverse = qft_inverse(system, stacked_f)
        norms = lq_table_norm(fs, 4.0 / 3.0, 0.5)
        pairings = trace_pairing(Ts[:, None], Ts)
        for k in range(7):
            assert np.array_equal(svals[k], singular_values(Ts[k]))
            assert np.array_equal(forward[k], qft_forward(system, Ts[k]).values)
            assert np.array_equal(inverse[k], qft_inverse(system, PhaseFunction(system.group, fs[k])))
            assert norms[k] == lq_table_norm(fs[k], 4.0 / 3.0, 0.5)
            for j in range(7):
                assert pairings[k, j] == np.vdot(Ts[j], Ts[k])

    def test_clamp_is_per_matrix(self):
        small = np.diag([1e-10, 1e-14])  # 1e-14 is above 1e-13 of its own s_1
        large = np.diag([1.0, 1e-14])  # ... and below 1e-13 of this one's
        s = singular_values(np.stack([small, large]))
        assert s[0, 1] == pytest.approx(1e-14, rel=1e-12, abs=0.0) and s[1, 1] == 0.0

    def test_stack_validation(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            as_operator(stack)
        with pytest.raises(ValueError, match="square"):
            as_operator(np.zeros((3, 2, 3)))
