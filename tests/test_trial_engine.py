"""The chunked trial engine against the per-trial loops it replaced.

The oracles below are the harness loops as they were before the engine: one
``np.random.default_rng([seed, k])`` per trial (:func:`oracle_rng`), one-go
draws (``operator_oracle``, ``phase_table_oracle``), single-operator kernel
calls, and a running worst that is replaced only on a strict ``>``.  They look
up :func:`oracle_rng` and the draws at call time, so a monkeypatched stream or
draw reaches them as a patched stream or read reaches the engine.
"""

import contextlib
import io
import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from qsobolev import cli, embedding, linalg, qft, sobolev, streams
from qsobolev.embedding import compute_exponents, verify_embedding_chain
from qsobolev.groups import lq_table_norm
from qsobolev.linalg import as_operator, schatten_norm, singular_values, trace_pairing
from qsobolev.qft import (
    conjugate_exponent,
    qft_forward,
    qft_inverse,
    verify_hausdorff_young,
    verify_plancherel,
    verify_roundtrips,
)
from qsobolev.sobolev import (
    SobolevSpec,
    bessel_multiplier,
    make_test_element,
    make_weight_euclidean,
    nondegeneracy_check,
    pairing_analytic_bound,
    pairing_bound_estimate,
    sobolev_norm,
    verify_norm_axioms,
    weighted_norm,
)
from qsobolev.streams import CHUNK_BYTES, chunk_length
from qsobolev.weyl import make_weyl_system, weyl_operator

from draw_oracles import operator_oracle, phase_table_oracle
from transform_oracles import phi_isometry_check

EXPONENTS = (1.0, 8.0 / 7.0, 4.0 / 3.0, 8.0 / 5.0, 2.0)
ULPS = 4
#: A seed of three 32-bit words; the CLI takes any non-negative ``--seed``.
WIDE_SEED = 2**64 + 5


def oracle_rng(seed, k):
    """Trial k's stream, built the way numpy documents it."""
    return np.random.default_rng([seed, k])


# -- the per-trial loops, kept as oracles -------------------------------------


def plancherel_loop(system, trials, seed):
    worst = 0.0
    for k in range(trials):
        T = operator_oracle(oracle_rng(seed, k), system.N)
        s2 = np.linalg.norm(T, axis=(-2, -1))
        if s2 == 0.0:
            continue
        l2 = lq_table_norm(qft_forward(T), 2.0, system.group.dual_mass)
        worst = max(worst, abs(l2 - s2) / s2)
    return worst


def roundtrips_loop(system, trials, seed):
    worst_op = 0.0
    worst_fn = 0.0
    for k in range(trials):
        rng = oracle_rng(seed, k)
        T = operator_oracle(rng, system.N)
        norm_T = np.linalg.norm(T)
        if norm_T > 0.0:
            back = qft_inverse(system, qft_forward(T))
            worst_op = max(worst_op, np.linalg.norm(back - T) / norm_T)
        f = phase_table_oracle(rng, system.group.size)
        norm_f = np.linalg.norm(f)
        if norm_f > 0.0:
            again = qft_forward(qft_inverse(system, f))
            worst_fn = max(worst_fn, np.linalg.norm(again - f) / norm_f)
    return {"operator_roundtrip": worst_op, "function_roundtrip": worst_fn}


def hausdorff_young_loop(system, p, direction, trials, seed):
    q = conjugate_exponent(p)
    worst = 0.0
    witness = None
    skipped = 0
    for k in range(trials):
        rng = oracle_rng(seed, k)
        if direction == "forward":
            T = operator_oracle(rng, system.N)
            denom = schatten_norm(T, p)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = lq_table_norm(qft_forward(T), q, system.group.dual_mass) / denom
        else:
            f = phase_table_oracle(rng, system.group.size)
            denom = lq_table_norm(f, p, system.group.dual_mass)
            if denom == 0.0:
                skipped += 1
                continue
            ratio = schatten_norm(qft_inverse(system, f), q) / denom
        if ratio > worst:
            worst = ratio
            witness = k
    return {
        "p": p,
        "q": q,
        "direction": direction,
        "trials": trials,
        "seed": seed,
        "worst_ratio": worst,
        "witness_available": witness is not None,
        "witness_index": witness,
        "skipped": skipped,
    }


def phi_isometry_loop(system, spec, trials, seed):
    multiplier = sobolev.bessel_multiplier(spec.weight, spec.s, spec.homogeneous)
    points = system.group.coordinates.T.tolist()
    worst = 0.0
    for k in range(trials):
        T = operator_oracle(oracle_rng(seed, k), system.N)
        via_fft = sobolev_norm(T, spec)
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
        rng = oracle_rng(seed, k)
        T = operator_oracle(rng, system.N)
        S = operator_oracle(rng, system.N)
        c = complex(rng.standard_normal(), rng.standard_normal())
        nT = sobolev_norm(T, spec)
        nS = sobolev_norm(S, spec)
        if nT == 0.0 and np.any(T != 0.0):
            definite_viol += 1
        if nT > 0.0:
            scaled = sobolev_norm(c * T, spec)
            worst_hom_rel = max(worst_hom_rel, abs(scaled - abs(c) * nT) / (abs(c) * nT))
        if nT + nS > 0.0:
            excess = (sobolev_norm(T + S, spec) - (nT + nS)) / (nT + nS)
            worst_tri = max(worst_tri, excess)
            if excess > triangle_tol:
                tri_viol += 1
        f = qft_forward(T)
        weighted = bessel_multiplier(spec.weight, spec.s, spec.homogeneous) * f
        worst_iso = max(worst_iso, abs(lq_table_norm(weighted, spec.q, system.group.dual_mass) - nT))
        n_base = sobolev_norm(T, base)
        n_stronger = sobolev_norm(T, stronger)
        if n_base > 0.0:
            excess = (n_base - n_stronger) / n_base
            worst_mono = max(worst_mono, excess)
            if excess > monotone_tol:
                mono_viol += 1
        n_hom = sobolev_norm(T, hom)
        if n_base > 0.0:
            excess = (n_hom - n_base) / n_base
            worst_dom = max(worst_dom, excess)
            if excess > monotone_tol:
                dom_viol += 1
    return {
        "N": system.N,
        "s": spec.s,
        "p": spec.p,
        "homogeneous": spec.homogeneous,
        "trials": trials,
        "seed": seed,
        "worst_homogeneity_rel": worst_hom_rel,
        "worst_triangle_excess": worst_tri,
        "triangle_violations": tri_viol,
        "worst_isometry_abs": worst_iso,
        "s_monotonicity_violations": mono_viol,
        "worst_s_monotonicity_excess": worst_mono,
        "hom_dominance_violations": dom_viol,
        "worst_hom_dominance_excess": worst_dom,
        "definiteness_violations": definite_viol,
    }


def pairing_loop(system, p, s, weight, sign, trials, seed, tolerance=1e-10):
    p_prime = conjugate_exponent(p)
    q_prime = conjugate_exponent(p_prime)
    bound = pairing_analytic_bound(p, s, weight, sign)
    worst = 0.0
    skipped = 0
    for k in range(trials):
        rng = oracle_rng(seed, k)
        T = operator_oracle(rng, system.N)
        phi = phase_table_oracle(rng, system.group.size)
        W = make_test_element(system, s, weight, phi, sign)
        denom = schatten_norm(T, p) * lq_table_norm(phi, q_prime, system.group.dual_mass)
        if denom == 0.0:
            skipped += 1
            continue
        worst = max(worst, abs(complex(trace_pairing(T, W))) / denom)
    return {
        "N": system.N,
        "p": p,
        "p_prime": p_prime,
        "q_prime": q_prime,
        "s": s,
        "sign": sign,
        "trials": trials,
        "seed": seed,
        "skipped": skipped,
        "max_ratio": worst,
        "analytic_bound": bound,
        "satisfied": bool(worst <= bound * (1.0 + tolerance)),
    }


def embedding_loop(system, spec, alpha, beta_choice, trials, seed):
    """The measured fields of ``verify_embedding_chain`` (default tolerances)."""
    exponents = compute_exponents(alpha, spec.q, spec.s)
    sigma = exponents["sigma"]
    m_norm = weighted_norm(1.0, spec.weight, -spec.s, alpha, spec.homogeneous)
    out = dict(skipped=0, violations=0, link1_violations=0, link2_violations=0)
    max_link1 = max_link2 = max_ratio = 0.0
    ratios_corrected = []
    ratios_alternate = [] if exponents["beta_alternate_defined"] else None
    for k in range(trials):
        T = operator_oracle(oracle_rng(seed, k), system.N)
        snorm = sobolev_norm(T, spec)
        if snorm == 0.0:
            out["skipped"] += 1
            continue
        f_sigma = lq_table_norm(qft_forward(T), sigma, system.group.dual_mass)
        link1 = f_sigma / (m_norm * snorm)
        max_link1 = max(max_link1, link1)
        out["link1_violations"] += bool(link1 > 1.0 + 1e-12)
        s_sigma_prime = schatten_norm(T, exponents["beta_corrected"])
        if f_sigma > 0.0:
            link2 = s_sigma_prime / f_sigma
            max_link2 = max(max_link2, link2)
            out["link2_violations"] += bool(link2 > 1.0 + 1e-10)
        ratios_corrected.append(s_sigma_prime / snorm)
        if ratios_alternate is not None:
            ratios_alternate.append(schatten_norm(T, exponents["beta_alternate"]) / snorm)
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


def nondegeneracy_loop(system, s, weight, sign):
    """Rank of the row-scaled delta family, and its least eigenvalue times the least squared row maximum."""
    K = system.group.size
    V = [make_test_element(system, s, weight, phi, sign).ravel() for phi in np.eye(K)]
    tops = [max(abs(x) for x in row) for row in V]
    scaled = np.array([[complex(x.real / top, x.imag / top) for x in row] for row, top in zip(V, tops)])
    eigs = np.linalg.eigvalsh(scaled.conj() @ scaled.T)
    rank = int(np.sum(eigs > 1e-10 * max(float(eigs[-1]), 1.0)))
    return rank, float(eigs[0]) * min(tops) ** 2


# -- harness pairs ------------------------------------------------------------


def _spec(system, homogeneous=False):
    weight = make_weight_euclidean(system.group)
    return SobolevSpec(s=1.0, p=4.0 / 3.0, weight=weight, homogeneous=homogeneous)


def _embedding_fields(report):
    """The fields of an embedding report that :func:`embedding_loop` measures."""
    return {
        key: report[key]
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
        lambda system, t, s: list(verify_hausdorff_young(system, EXPONENTS, direction, t, s)),
        lambda system, t, s: [hausdorff_young_loop(system, p, direction, t, s) for p in EXPONENTS],
    )


def _pairing_pair():
    def batch(system, t, s):
        weight = make_weight_euclidean(system.group)
        return list(pairing_bound_estimate(system, 4.0, 1.0, weight, signs=(-1, 1), trials=t, seed=s))

    def oracle(system, t, s):
        weight = make_weight_euclidean(system.group)
        return [pairing_loop(system, 4.0, 1.0, weight, sign, t, s) for sign in (-1, 1)]

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
        verify_plancherel,
        lambda system, t, s: {"worst_relative_deviation": plancherel_loop(system, t, s)}
        | roundtrips_loop(system, t, s),
    ),
    "roundtrips": (verify_roundtrips, roundtrips_loop),
    "hausdorff-young-forward": _hy("forward"),
    "hausdorff-young-inverse": _hy("inverse"),
    "norm-axioms": (
        lambda system, t, s: verify_norm_axioms(system, _spec(system), t, s),
        lambda system, t, s: norm_axioms_loop(system, _spec(system), t, s),
    ),
    "norm-axioms-homogeneous": (
        lambda system, t, s: verify_norm_axioms(system, _spec(system, True), t, s),
        lambda system, t, s: norm_axioms_loop(system, _spec(system, True), t, s),
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
    """Counts, indices and flags equal; floats within ULPS of the oracle."""
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
        if batch != oracle:
            gap = abs(batch - oracle)
            assert gap <= ULPS * np.spacing(max(abs(batch), abs(oracle))), (path, batch, oracle)
    else:
        assert batch == oracle and type(batch) is type(oracle), (path, batch, oracle)


@pytest.fixture
def chunk_of(monkeypatch):
    """Set ``CHUNK_BYTES`` so that a chunk holds ``length`` trials at dimension N."""

    def set_length(N, length):
        monkeypatch.setattr(streams, "CHUNK_BYTES", length * 16 * N * N)
        assert chunk_length(N) == length

    return set_length


def trial_counts(chunk):
    return (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)


# -- the engine against the oracles --------------------------------------------


class TestOracles:
    @pytest.mark.parametrize("name", sorted(HARNESSES))
    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 17, WIDE_SEED])
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
        weight = make_weight_euclidean(system.group)
        (report,) = nondegeneracy_check(system, 1.0, weight, signs=(sign,))
        rank, min_eigenvalue = nondegeneracy_loop(system, 1.0, weight, sign)
        assert report["rank"] == rank == N * N
        assert_matches(report["min_eigenvalue"], min_eigenvalue)


@pytest.fixture
def zero_draws(monkeypatch):
    """Trial indices whose operator draws and dual-table draws become zero.

    The engine takes trial k's stream from ``streams._trial_streams`` and the
    oracles take it from :func:`oracle_rng`; both record k.  The patch then
    sits on the engine's column reads and on the oracles' one-go draws
    (``operator_oracle``, ``phase_table_oracle``): the real read or draw still
    runs first, so every later draw of the trial sees the stream it would see
    without the patch, and the trial's sample is zeroed.
    """
    zeros = set()
    current = {}
    real_trial_streams = streams._trial_streams

    def trial_streams(seed, start, stop):
        for k, rng in zip(range(start, stop), real_trial_streams(seed, start, stop)):
            current["k"] = k
            yield rng

    def stream(seed, k):
        current["k"] = k
        return np.random.default_rng([seed, k])

    monkeypatch.setattr(streams, "_trial_streams", trial_streams)
    monkeypatch.setitem(globals(), "oracle_rng", stream)
    for name in ("operator_oracle", "phase_table_oracle"):

        def draw(*args, real_draw=globals()[name]):
            sample = real_draw(*args)
            return np.zeros_like(sample) if current["k"] in zeros else sample

        monkeypatch.setitem(globals(), name, draw)
    for reads in (streams.OperatorReads, streams.TableReads):
        real_read, real_assemble = reads.read, reads.assemble

        def read(self, rng, i, real_read=real_read):
            real_read(self, rng, i)
            if current["k"] in zeros:
                self.__dict__.setdefault("zeroed", []).append(i)

        def assemble(self, real_assemble=real_assemble):
            stack = real_assemble(self)
            stack[self.__dict__.get("zeroed", [])] = 0.0
            return stack

        monkeypatch.setattr(reads, "read", read)
        monkeypatch.setattr(reads, "assemble", assemble)
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
            assert rep["skipped"] == 2
            assert rep["witness_available"] and rep["witness_index"] not in (1, 4)
        zero_draws.update(range(10))
        for direction in ("forward", "inverse"):
            for rep in verify_hausdorff_young(system, EXPONENTS, direction, 10, 1):
                assert rep["skipped"] == 10 and rep["worst_ratio"] == 0.0
                assert not rep["witness_available"] and rep["witness_index"] is None
        spec = _spec(system)
        chain = verify_embedding_chain(system, spec, 4.0, trials=10, seed=1)
        assert chain["skipped"] == 10 and chain["ratios_corrected"] == () and chain["max_ratio"] == 0.0
        axioms = verify_norm_axioms(system, spec, 10, 1)
        assert axioms["worst_triangle_excess"] == -math.inf and axioms["triangle_violations"] == 0
        (pair,) = pairing_bound_estimate(system, 4.0, 1.0, spec.weight, trials=10, seed=1)
        assert pair["skipped"] == 10 and pair["max_ratio"] == 0.0 and pair["satisfied"]


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
        monkeypatch.setattr(streams, "CHUNK_BYTES", 3 * 16 * 9)  # chunks of 3, 3, 3 and 1
        assert chunk_length(3) == 3
        assert batch(system, 10, 5) == one_chunk

    def test_trials_validated_by_engine(self):
        with pytest.raises(ValueError, match="trials"):
            streams.run_trials(4, 0, 0, (partial(streams.OperatorReads, 4),), lambda T: (T,))


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


def _count_trials(monkeypatch):
    """Count the trial streams the engine reads, one per trial."""
    trials = []
    real_trial_streams = streams._trial_streams

    def counted(seed, start, stop):
        for rng in real_trial_streams(seed, start, stop):
            trials.append(1)
            yield rng

    monkeypatch.setattr(streams, "_trial_streams", counted)
    return trials


def _run_cli(argv, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv + ["--out", str(tmp_path / "report.json")])


class TestDrawCounts:
    # plancherel: 100 trials shared by the deviation and both round trips;
    # hausdorff-young: 100 trials per direction; pairing: 200 shared by both signs.
    @pytest.mark.parametrize("command", ["plancherel", "hausdorff-young", "pairing"])
    def test_cli_defaults_draw_each_trial_once(self, command, monkeypatch, tmp_path):
        draws = _count_trials(monkeypatch)
        assert _run_cli([command], tmp_path) == 0
        assert len(draws) == {"plancherel": 100, "hausdorff-young": 200, "pairing": 200}[command]

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
            lambda system: pairing_bound_estimate(
                system, 4.0, 1.0, make_weight_euclidean(system.group), (-1, 1), 300, 0
            ),
            lambda system: verify_embedding_chain(system, _spec(system), 4.0, trials=300, seed=0),
        ],
        ids=["pairing", "embedding"],
    )
    def test_one_decomposition_per_chunk(self, run, monkeypatch):
        svds = _count_calls(monkeypatch, linalg, "singular_values")
        run(make_weyl_system(8))
        assert len(svds) == 3  # 300 trials in chunks of 128

    def test_plancherel_transforms_each_operator_once_and_decomposes_none(self, monkeypatch):
        # ||T||_S2 comes from the entries; one transform of T serves the
        # deviation and the operator round trip, one more closes the function round trip.
        svds = _count_calls(monkeypatch, linalg, "singular_values")
        transforms = _count_calls(monkeypatch, qft, "qft_forward")
        verify_plancherel(make_weyl_system(8), 300, 0)
        assert len(svds) == 0
        assert len(transforms) == 2 * 3  # 300 trials in chunks of 128

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_norm_axioms_take_six_norms_per_chunk(self, homogeneous, monkeypatch):
        # Orders s, 2s and homogeneous s of T (the spec's norm is one of them),
        # then the norms of S, c T and T + S.
        norms = _count_calls(monkeypatch, sobolev, "weighted_norm")
        system = make_weyl_system(8)
        verify_norm_axioms(system, _spec(system, homogeneous), 300, 0)
        assert len(norms) == 6 * 3  # 300 trials in chunks of 128

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_embedding_transforms_once_per_chunk(self, homogeneous, monkeypatch):
        # One transform serves both the Sobolev norm and ||F(T)||_sigma.
        transforms = _count_calls(monkeypatch, qft, "qft_forward")
        system = make_weyl_system(8)
        verify_embedding_chain(system, _spec(system, homogeneous), 4.0, trials=300, seed=0)
        assert len(transforms) == 3  # 300 trials in chunks of 128


# -- stream reads and chunk assembly ------------------------------------------


ASSEMBLY_DIMENSIONS = [1, 2, 3, 8, 32, 64]


def trials_of_kind(column, seed, kind, count):
    """The first ``count`` trials of ``seed`` whose read draws ensemble ``kind``, by ``by_kind``."""
    trials = []
    for k in itertools.count():
        reads = column(1)
        reads.read(oracle_rng(seed, k), 0)
        if reads.by_kind[kind]:
            trials.append(k)
            if len(trials) == count:
                return trials


def read_chunk(column, seed, trials):
    """One chunk's column, slot i read from the stream of trial ``trials[i]``."""
    reads = column(len(trials))
    for i, k in enumerate(trials):
        reads.read(oracle_rng(seed, k), i)
    return reads


def chunk_of_kind(column, N, kind, chunk_of, length):
    """Twelve trials of seed N and their assembled draws.

    ``"mixed"`` runs trials 0 to 11 through the engine in chunks of ``length``.
    An ensemble gives one chunk of the first 12 trials drawing it, so its
    slots form one slice.
    """
    if kind == "mixed":
        chunk_of(N, length)
        return range(12), streams.run_trials(N, 12, N, (column,), lambda x: (x,))[0]
    trials = trials_of_kind(column, N, kind, 12)
    reads = read_chunk(column, N, trials)
    assert reads.by_kind[kind] == list(range(12))
    return trials, reads.assemble()


class TestStreamReads:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63 + 5])
    @pytest.mark.parametrize("index", [0, 1, 127, 10**6])
    def test_trial_rng_is_the_default_rng_stream(self, seed, index):
        (state,) = streams.seed_block(seed, index, 1)
        ours, reference = np.random.Generator(np.random.PCG64()), np.random.default_rng([seed, index])
        ours.bit_generator.state = state
        assert state == reference.bit_generator.state
        assert np.array_equal(ours.standard_normal(64), reference.standard_normal(64))
        assert np.array_equal(ours.integers(2**62, size=8), reference.integers(2**62, size=8))

    @pytest.mark.parametrize("N", ASSEMBLY_DIMENSIONS)
    @pytest.mark.parametrize("kind", ("mixed",) + streams.OPERATOR_ENSEMBLES)
    def test_chunk_assembly_equals_one_draw_at_a_time(self, N, kind, chunk_of):
        column = partial(streams.OperatorReads, N)
        trials, chunk = chunk_of_kind(column, N, kind, chunk_of, 12)
        for slot, k in enumerate(trials):
            rng, reference = oracle_rng(N, k), oracle_rng(N, k)
            expected = operator_oracle(reference, N)
            assert np.array_equal(chunk[slot], expected), k
            reads = column(1)
            reads.read(rng, 0)
            assert np.array_equal(reads.assemble()[0], expected), k
            # The read leaves the stream where the one-go draw does.
            assert rng.standard_normal() == reference.standard_normal()

    @pytest.mark.parametrize("N", ASSEMBLY_DIMENSIONS)
    @pytest.mark.parametrize("kind", ("mixed",) + streams.PHASE_ENSEMBLES)
    def test_phase_tables_equal_one_draw_at_a_time(self, N, kind, chunk_of):
        column = partial(streams.TableReads, N * N)
        trials, chunk = chunk_of_kind(column, N, kind, chunk_of, 5)
        for slot, k in enumerate(trials):
            rng, reference = oracle_rng(N, k), oracle_rng(N, k)
            expected = phase_table_oracle(reference, N * N)
            assert np.array_equal(chunk[slot], expected), k
            reads = column(1)
            reads.read(rng, 0)
            assert np.array_equal(reads.assemble()[0], expected), k
            assert rng.standard_normal() == reference.standard_normal()

    @pytest.mark.parametrize(
        "run, per_chunk",
        [
            (lambda system: verify_plancherel(system, 300, 0), 1),
            (lambda system: verify_hausdorff_young(system, EXPONENTS, "forward", 300, 0), 1),
            (lambda system: verify_hausdorff_young(system, EXPONENTS, "inverse", 300, 0), 0),
            (lambda system: pairing_bound_estimate(
                system, 4.0, 1.0, make_weight_euclidean(system.group), (-1, 1), 300, 0), 1),
            (lambda system: verify_embedding_chain(system, _spec(system), 4.0, trials=300, seed=0), 1),
            (lambda system: verify_norm_axioms(system, _spec(system), 300, 0), 2),
        ],
        ids=["plancherel", "hausdorff-young-forward", "hausdorff-young-inverse", "pairing",
             "embedding", "norm-axioms"],
    )
    def test_one_qr_per_operator_column_per_chunk(self, run, per_chunk, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        run(make_weyl_system(8))
        # 300 trials in chunks of 128; norm-axioms draws two operators (T, S) per trial.
        assert len(calls) == 3 * per_chunk
        assert all(len(shape) == 3 and shape[1:] == (8, 8) for shape in calls)

    @pytest.mark.parametrize("length", [1, 3])
    def test_sparse_only_chunk_is_assembled_without_a_copy(self, length):
        # numpy reports its arrays to tracemalloc; LAPACK's work space is not traced.
        # The Ginibre matrices are built in place of their reads, so the QR's
        # copy, Q and R peak at three stacks; a Ginibre stack kept beside the
        # reads through the QR would make it four.
        column = partial(streams.OperatorReads, 64)
        reads = read_chunk(column, 0, trials_of_kind(column, 0, "sparse_unitary", length))
        assert reads.by_kind["sparse_unitary"] == list(range(length))
        tracemalloc.start()
        try:
            reads.assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * reads.operators.nbytes


class StreamProbe:
    """A draw column that records each trial's generator state and first draws."""

    def __init__(self, length):
        self.states = np.empty(length, dtype=object)
        self.draws = np.empty((length, 4))

    def read(self, rng, i):
        self.states[i] = rng.bit_generator.state
        self.draws[i, :3] = rng.standard_normal(3)
        self.draws[i, 3] = rng.integers(2**52)

    def assemble(self):
        return self


SEEDS = [0, 1, 2**32 - 1, 2**32, WIDE_SEED, 2**130 + 3, np.uint64(2**63 + 9)]
SEED_IDS = ["0", "1", "2^32-1", "2^32", "2^64+5", "2^130+3", "uint64"]


class TestStreamSeeding:
    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    def test_engine_streams_are_the_default_rng_streams(self, seed):
        # Past the first seeding block, so trials on both sides of its boundary.
        trials = streams.SEED_BLOCK + 3
        states, draws = streams.run_trials(8, trials, seed, (StreamProbe,), lambda probe: (probe.states, probe.draws))
        for k in range(trials):
            reference = np.random.default_rng([seed, k])
            assert states[k] == reference.bit_generator.state, k
            assert np.array_equal(draws[k, :3], reference.standard_normal(3)), k
            assert draws[k, 3] == reference.integers(2**52), k

    @pytest.mark.parametrize("seed", [0, WIDE_SEED, 2**130 + 3], ids=["0", "2^64+5", "2^130+3"])
    def test_block_crosses_the_index_word_boundary(self, seed):
        # Indices 2^32 - 2 and 2^32 - 1 are one 32-bit word, 2^32 and up two.
        start = 2**32 - 2
        for j, state in enumerate(streams.seed_block(seed, start, 4)):
            assert state == np.random.default_rng([seed, start + j]).bit_generator.state, j

    @pytest.mark.parametrize("bad", [-1, 1.5, np.float64(2.0)], ids=["negative", "float", "numpy-float"])
    def test_invalid_seed_raises_what_default_rng_raises(self, bad):
        with pytest.raises(Exception) as expected:
            np.random.default_rng([bad, 0])
        with pytest.raises(expected.type):
            streams.seed_block(bad, 0, 1)
        with pytest.raises(expected.type):
            streams.run_trials(8, 3, bad, (partial(streams.OperatorReads, 8),), lambda T: (T,))


class TestReplay:
    def test_replay_is_the_engine_draw(self):
        draw = (partial(streams.OperatorReads, 8), partial(streams.TableReads, 64))
        T, f = streams.run_trials(8, 200, 4, draw, lambda T, f: (T, f))
        for k in (0, 127, 128, 199):
            T_k, f_k = streams.replay(draw, 4, k)
            assert T_k.shape == (1, 8, 8) and f_k.shape == (1, 64)
            assert np.array_equal(T_k[0], T[k]) and np.array_equal(f_k[0], f[k])

    def test_replay_of_the_norm_axioms_draw(self):
        # Two operators and a scalar per trial, as verify_norm_axioms reads them;
        # trials 127 and 128 sit on both sides of the first chunk boundary.
        draw = (partial(streams.OperatorReads, 8), partial(streams.OperatorReads, 8), streams.ScalarReads)
        T, S, c = streams.run_trials(8, 200, 4, draw, lambda T, S, c: (T, S, c))
        assert chunk_length(8) == 128
        for k in (0, 127, 128, 199):
            T_k, S_k, c_k = streams.replay(draw, 4, k)
            assert T_k.shape == S_k.shape == (1, 8, 8) and c_k.shape == (1,)
            assert np.array_equal(T_k[0], T[k]) and np.array_equal(S_k[0], S[k])
            assert c_k[0] == c[k]

    def test_forward_witness_replays_its_worst_ratio(self):
        system = make_weyl_system(8)
        for rep in verify_hausdorff_young(system, EXPONENTS, "forward", 100, 0):
            (T,) = streams.replay((partial(streams.OperatorReads, 8),), 0, rep["witness_index"])
            transformed = lq_table_norm(qft_forward(T), rep["q"], system.group.dual_mass)
            ratio = transformed / lq_table_norm(singular_values(T), rep["p"], 1.0)
            assert ratio[0] == rep["worst_ratio"], rep["p"]


# -- stacked kernels ----------------------------------------------------------


class TestStackedKernels:
    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    def test_stack_equals_single_calls(self, N):
        system = make_weyl_system(N)
        Ts = np.stack([operator_oracle(oracle_rng(N, k), N) for k in range(7)])
        fs = np.stack([phase_table_oracle(oracle_rng(N, k), N * N) for k in range(7)])
        svals = singular_values(Ts)
        forward = qft_forward(Ts)
        inverse = qft_inverse(system, fs)
        norms = lq_table_norm(fs, 4.0 / 3.0, 0.5)
        pairings = trace_pairing(Ts[:, None], Ts)
        for k in range(7):
            assert np.array_equal(svals[k], singular_values(Ts[k]))
            assert np.array_equal(forward[k], qft_forward(Ts[k]))
            assert np.array_equal(inverse[k], qft_inverse(system, fs[k]))
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
