"""Drive the randomized differential harness over a fixed seed matrix.

The harness (``tests/differential.py``) derives a complete scenario from
each seed and sweeps it through the {serial, simulated, process} x
{python, c} matrix (``c`` where it builds), asserting full-state
equality (both phases) plus shared-memory/socket/worker hygiene.  Its
out-of-core tier adds a leg on the process runner's ``host:port``
workers (worker servers on threads of the test process) at every seed.
The seed matrix is fixed so CI is deterministic; any failure message
names the seed and the exact reproduction command.
"""

import multiprocessing

import pytest

from differential import (
    RUNNERS,
    check_out_of_core_seed,
    check_seed,
    make_case,
    make_huge_case,
    run_case,
    sequential_reference,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Fixed CI seed matrix.  Chosen to cover every generator, both modes,
#: n_workers == 1 and > 1, and the sharded Phase 1 (the harness biases
#: parallel_phase1 toward True); see ``test_seed_matrix_covers_surface``.
SEED_MATRIX = (11, 23, 58, 101, 240, 397, 1009, 4242)

#: Fixed seed matrix of the huge-shape out-of-core tier.  Chosen to
#: cover every generator, both modes, n_workers == 1 and > 1, and k
#: both on and off a byte boundary (the packed-row tail bits); see
#: ``test_out_of_core_matrix_covers_surface``.
OUT_OF_CORE_SEED_MATRIX = (8, 12, 14)

#: Extra seeds for a longer local soak (kept empty in CI for run time).
EXTRA_RANDOM_SEEDS = ()


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
@pytest.mark.parametrize("seed", SEED_MATRIX + EXTRA_RANDOM_SEEDS)
def test_differential_seed(seed):
    check_seed(seed)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
@pytest.mark.parametrize("seed", OUT_OF_CORE_SEED_MATRIX)
def test_out_of_core_differential_seed(seed):
    check_out_of_core_seed(seed)


def test_out_of_core_matrix_covers_surface():
    """The out-of-core matrix must keep stressing the packed-row layout
    (multi-byte rows, tail bits, the exact byte boundary) and both ends
    of the worker/mode dimensions."""
    cases = [make_huge_case(seed) for seed in OUT_OF_CORE_SEED_MATRIX]
    assert all(c.k > 8 for c in cases)
    assert any(c.k % 8 == 0 for c in cases)
    assert any(c.k % 8 != 0 for c in cases)
    assert {c.mode for c in cases} == {"linear", "hdrf"}
    assert any(c.n_workers == 1 for c in cases)
    assert any(c.n_workers > 1 for c in cases)
    assert len({c.generator for c in cases}) == 3


def test_huge_case_derivation_is_deterministic():
    assert make_huge_case(999) == make_huge_case(999)


def test_out_of_core_failure_names_the_seed(monkeypatch):
    """A diverging out-of-core variant must surface the reproducing
    seed and the --out-of-core flag in the error."""
    import differential

    real = differential._run_out_of_core

    def broken(case, runner, backend, packed, stream):
        result = real(case, runner, backend, packed, stream)
        if packed:  # corrupt every packed-state variant
            result.assignments[0] = (result.assignments[0] + 1) % case.k
        return result

    monkeypatch.setattr(differential, "_run_out_of_core", broken)
    with pytest.raises(AssertionError, match="--out-of-core --seed 3"):
        differential.check_out_of_core_seed(3, include_process=False)


def test_host_port_leg_failure_names_its_flag(monkeypatch):
    """The out-of-core tier pins its ``host:port`` leg against the other
    runners: a diverging leg names the flag that adds it to the
    reproduction command, and its worker servers are gone."""
    import differential

    real = differential._run_out_of_core
    legs = []

    def broken(case, runner, backend, packed, stream):
        result = real(case, runner, backend, packed, stream)
        legs.append(runner)
        if runner == differential.HOST_PORT:
            result.assignments[0] = (result.assignments[0] + 1) % case.k
        return result

    monkeypatch.setattr(differential, "_run_out_of_core", broken)
    with pytest.raises(
        AssertionError, match="--out-of-core --seed 3 --host-port"
    ) as exc:
        differential.check_out_of_core_seed(
            3, backends=("python",), include_process=False
        )
    assert "host:port" in str(exc.value)
    variants = differential._OOC_LEG_VARIANTS[differential.HOST_PORT]
    assert legs.count(differential.HOST_PORT) == len(variants)
    assert differential.live_connections() == frozenset()


def test_seed_matrix_covers_surface():
    """The fixed matrix must keep exercising the interesting corners even
    if the case-derivation recipe changes."""
    cases = [make_case(seed) for seed in SEED_MATRIX]
    assert {c.generator for c in cases} == {"rmat", "hub-heavy", "chung-lu"}
    assert {c.mode for c in cases} == {"linear", "hdrf"}
    assert any(c.n_workers == 1 for c in cases)
    assert any(c.n_workers > 1 for c in cases)
    assert sum(c.parallel_phase1 for c in cases) >= len(cases) // 2
    assert any(not c.parallel_phase1 for c in cases)


def test_case_derivation_is_deterministic():
    assert make_case(12345) == make_case(12345)


def test_a_constructed_segment_fails_the_sweep(monkeypatch):
    """The hygiene check sees a ``SharedMemory`` made during a run, even
    one released before the run returns."""
    from multiprocessing import shared_memory

    import differential

    real = differential.run_case

    def with_segment(case, runner, backend):
        segment = shared_memory.SharedMemory(create=True, size=16)
        segment.close()
        segment.unlink()
        return real(case, runner, backend)

    monkeypatch.setattr(differential, "run_case", with_segment)
    with pytest.raises(AssertionError, match="shared-memory segments constructed"):
        differential.check_seed(77, runners=("serial",))


def test_failure_names_the_seed(monkeypatch):
    """A diverging run must surface the reproducing seed in the error."""
    import differential

    def broken_run(case, runner, backend):
        result = differential.ParallelTwoPhase(
            n_workers=case.n_workers,
            sync_interval=case.sync_interval,
            mode=case.mode,
            backend=backend,
            parallel_phase1=case.parallel_phase1,
        ).partition(case.build_graph(), case.k, alpha=case.alpha)
        if runner == "simulated":  # corrupt one runner's output
            result.assignments[0] = (result.assignments[0] + 1) % case.k
        return result

    monkeypatch.setattr(differential, "run_case", broken_run)
    with pytest.raises(AssertionError, match="--seed 77"):
        differential.check_seed(77, include_process=False)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_harness_pieces_compose():
    """run_case / sequential_reference agree on a hand-picked 1-worker
    case without going through check_seed (guards the helpers' API)."""
    seed = next(s for s in range(500) if make_case(s).n_workers == 1)
    case = make_case(seed)
    seq = sequential_reference(case, "python")
    for runner in RUNNERS:
        par = run_case(case, runner, "python")
        assert (par.assignments == seq.assignments).all(), (seed, runner)
