"""Solver and cat states hold their sector coefficients; coeffs is built on read.

Oracles: sha256 digests of state.coeffs recorded from the code that built
every state's full-space vector when it made the state (zeros, the scatter
of the sector vector, then the negation of the whole vector where the
largest coefficient was negative, so each zero takes its sign bit); the
bytes of one-state expval_tables and level_populations calls beside stacks
that mix sector-held and full-vector states, and of coeffs[ranks] beside the
rows those stacks read; and counts of sector searches and of full-space
vectors built.
"""

import hashlib

import numpy as np
import pytest

from udspin.basis import SymmetricBasis, SymmetricState, _as_stack, expval_tables, shared_basis
from udspin.lmg import LmgParams, ground_state, variational_cat
from udspin.rdm import level_populations
from udspin.states import dscs
from udspin.sweep import SweepConfig, run_sweep

KINDS = ("even", (0, 1), (1, 0), (1, 1), "cat")

# per N and lambda, the first 16 hex digits of sha256(coeffs.tobytes()) for
# each of KINDS; 20 of these 120 vectors hold negative zeros (141,102 of them
# in each of four at N = 400), lost by a build that skips the negation
_DIGESTS = """
3 0.3 6838ecd5062ba095 c5638fe306655109 b44096370973423a 45516e78fb9606c7 6c602861d0658aa1
3 0.7 9c8e3dbfddc0b4a0 50877e4f7fd5f878 a40b600831bf08a1 45516e78fb9606c7 20969da4186b73a2
3 1.3 dfd9d21c6d8457f4 858895458ef86588 22874e18e612de6a 45516e78fb9606c7 c5c2f4256237ff02
3 2.0 949ecf6afcd8383f 900a77c5d210e828 27af975f0fcfb634 45516e78fb9606c7 12c8d7bc31b0cf45
4 0.3 615bfbfd0c05fda3 7816a6c3c13ba1cc d37015bf6c62f8f8 8ea3cc76c89ea782 05246aa232a6ca05
4 0.7 e7b129d3bef16236 1faca4fada8d5214 e315a717960a0f34 c03a4d909ad55df6 260cf4f34bc1236c
4 1.3 d1fe253a12f3bf27 ba94454c96403de7 9eabd42322e6d27c b7bc53f65783c4bf af9cdb6ad1bc04d6
4 2.0 41c65a688b03a973 ebce08e0031b5a9a 243b62afa0f85c11 91d896fb7e078340 658a15af652d9877
9 0.3 e6682f28b44d973f 7d8e6a5d9e091c54 10764f222f028673 853f719ea2afb0df 871e97a59fc0edc8
9 0.7 fa0b4a282336eb95 3dbd588b56201612 59f58605ad181a1c 65d04ffe7aa36349 d51d081b26a20f5d
9 1.3 0d862da154be769d fa292a56038ba154 95459e33b931ecfc a07823c1083d8e8d 53b4ffad6562899b
9 2.0 12760bf9a77ad6f5 e7a61eae7aeed5c8 1c1e84dcb1e77bce 2a12116305d03eff a1419450ad36e7eb
50 0.3 c1ea4d927bda33e7 e662be78f78edede f0e06bcd827ad74f f616d56a9bea868e da75a20118b3efbc
50 0.7 a48d06128558820c 55050c967fc3ec42 f277ac6e1ec2822a 6e5656695318101c 26dd65abe5af86dc
50 1.3 1382c8eb7b9958cb 696d6228d7c4b308 af45677372635a82 c9b71a2624618cda b8048c82700b6131
50 2.0 32143d67d3d34451 7ac0d7612aa8d5d9 1621c8722d9e6ad6 bb34a26be53ae643 575315b656508c85
51 0.3 34c62545d53b5709 5d89dfcee1ec891f aa93ab3d68e91017 ebf5554d69b501fa aa39915c8ff280c4
51 0.7 94084028b6674ad3 98f04369037ead12 ece2be859f32bf13 abd8c978b1f6442e 3524ef3929931fba
51 1.3 7a6183cc307703eb ec763d342fae0a21 74dbc80f55070b98 f2fc5ebee75d121a 1e2b505c27a4b562
51 2.0 1bb09b02e0fd2705 f531ff01a4111149 71d5e306b549cd6d 6bad059517ad2987 d77be57b4bedb965
400 0.3 71029ebe31ae99d6 9bad448be384ccff 46e767bb79f78d9f 918455e90259dd06 16f1a25f3db38210
400 0.7 21ca628a7c9af37b d6925bdc56aec8e6 198bf9ef064a02c4 023d2316caa49045 8c825ba327c6d679
400 1.3 451a8cda8840f570 f7f309bcef52a3d9 d0d2644d34837315 c6214fb635ae36f1 bfef1443da23abaa
400 2.0 767b4eef45e21e47 ed89cb654634e7ab 3640038eafbd8008 9a92c5f53afec46a 34bd88255bff57df
"""
CASES = [(c[0], c[1], c[2:]) for c in map(str.split, _DIGESTS.strip().splitlines())]


def _state(params: LmgParams, kind):
    if kind == "cat":
        return variational_cat(shared_basis(params.n_particles, 3), params)
    return ground_state(params, kind).state


def _same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the full-space vector, built on read


@pytest.mark.parametrize("n, lam, digests", CASES, ids=[f"{n}-{lam}" for n, lam, _ in CASES])
def test_coeffs_keep_their_bytes_negative_zeros_included(n, lam, digests):
    params = LmgParams(n_particles=int(n), lam=float(lam))
    for kind, digest in zip(KINDS, digests):
        state = _state(params, kind)
        assert state._coeffs is None, kind  # made on its sector: nothing full-space yet
        c = state.coeffs
        assert hashlib.sha256(c.tobytes()).hexdigest()[:16] == digest, (n, lam, kind)
        assert state.coeffs is c and not c.flags.writeable
        # one sign bit for every zero outside the sector and every imaginary part
        outside = np.ones(c.size, dtype=bool)
        outside[state._rows.ranks] = False
        sign = np.signbit(c.imag)
        assert sign.all() or not sign.any(), kind
        assert (np.signbit(c[outside].view(np.float64)) == sign[0]).all(), kind


def test_sector_coefficients_are_owned_and_not_views_of_the_stack():
    params = LmgParams(n_particles=50, lam=0.0)
    lams = (0.3, 1.0, 2.0)
    results = ground_state(params, lams=lams)
    cats = variational_cat(shared_basis(50, 3), params, lams=lams)
    size = shared_basis(50, 3).sector_rows((0, 0)).ranks.size
    for state, itemsize in [(r.state, 8) for r in results] + [(cat, 16) for cat in cats]:
        values = state._values
        assert values.base is None and values.nbytes == itemsize * size
        assert not values.flags.writeable


# ---------------------------------------------------------------------------
# stacks that mix how their states are held


@pytest.fixture
def searches(monkeypatch):
    calls = []
    real = SymmetricBasis.state_sector

    def counting(self, coeffs):
        calls.append(coeffs.size)
        return real(self, coeffs)

    monkeypatch.setattr(SymmetricBasis, "state_sector", counting)
    return calls


def _mixed_states(n: int):
    """A coherent state on no one sector, then per sector a solver state and a
    full-space copy of it found there by search: the even ground state and
    cat at lambda = 2, and the (0, 1) ground state at lambda = 0.7, whose
    largest coefficient is negative at these N, so it is held negated."""
    basis = shared_basis(n, 3)
    params = LmgParams(n_particles=n, lam=2.0)
    even = ground_state(params).state
    odd = ground_state(LmgParams(n_particles=n, lam=0.7), (0, 1)).state
    assert odd._negated and not even._negated
    return [
        dscs(basis, (1.0, 0.4 - 0.3j, 0.7)),
        even,
        variational_cat(basis, params),
        SymmetricState(basis, even.coeffs),
        odd,
        SymmetricState(basis, odd.coeffs),
    ]


@pytest.mark.parametrize("n", [9, 50, 51])
def test_mixed_stacks_give_the_bytes_of_one_state_calls(searches, n):
    states = _mixed_states(n)
    singles = [expval_tables(state) for state in states]
    pops = {i: [level_populations(state, i) for state in states] for i in (1, 2, 3)}
    assert len(searches) == 3  # the full-space vectors, each searched once
    for held, found in ((1, 3), (4, 5)):
        assert states[found]._rows is states[held]._rows
        assert all(map(_same_bytes, singles[held], singles[found]))
    stacks = [states, states[::-1], states[1:4], states[3:0:-1], states[4:], states[:0:-1]]
    for stack in stacks:
        S, Q = expval_tables(stack)
        want = [singles[states.index(state)] for state in stack]
        assert _same_bytes(S, np.stack([w[0] for w in want]))
        assert _same_bytes(Q, np.stack([w[1] for w in want]))
        for i in (1, 2, 3):
            got = level_populations(stack, i)
            assert _same_bytes(got, np.stack([pops[i][states.index(state)] for state in stack]))
    assert len(searches) == 3
    assert states[2]._coeffs is None  # read on its sector only, never built
    for stack in (states[1:4], states[4:]):  # the rows are coeffs[ranks], signed zeros included
        _, _, sector, c = _as_stack(stack)
        assert all(_same_bytes(row, state.coeffs[sector.ranks]) for row, state in zip(c, stack))


def test_sweep_reads_no_full_space_vector(monkeypatch, searches):
    reads = []
    real = SymmetricState.coeffs.fget

    def counting(self):
        reads.append(self._coeffs is None)
        return real(self)

    monkeypatch.setattr(SymmetricState, "coeffs", property(counting, SymmetricState.coeffs.fset))
    assert len(run_sweep(SweepConfig(n_particles=31, lambdas=(0.0, 1.0, 2.0)))) == 6
    assert reads == [] and searches == []
