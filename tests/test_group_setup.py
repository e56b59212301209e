"""The group set-up against its earlier routes.

close_group keys each element by the indices of its rows in the orbit of
the coordinate rows, and the Molien pass reads det(I - t g) off power
traces.  The references, kept in conftest, are the closure by integer matrix
products and Faddeev-LeVerrier.  The CLI builds element matrices, and
inverts them, only for the generators; any other element's inverse is
built only when it is asked for.
"""

import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import DimensionMismatchWithMolien, MatGroup, RatMatrix, close_group, molien
from equivar import serialize as sz
from equivar.cli import main
from equivar.molien import _newton, _trace_tuples

from conftest import (
    GROUPS_DIR,
    MIXED_GROUPS,
    det_one_minus_t,
    mixed_generating_sets,
    product_closure,
    rational_conjugates,
    signed_permutation_groups,
)


def _file_group(name: str) -> MatGroup:
    return sz.group_from_doc(sz.load_json(os.path.join(GROUPS_DIR, name + ".json")))


def assert_determinants_match_oracle(group: MatGroup) -> None:
    for m, traces in zip(group.elements, _trace_tuples(group), strict=True):
        assert list(_newton(traces)) == det_one_minus_t(m)


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    signed_permutation_groups(),
    rational_conjugates(),
    mixed_generating_sets().map(close_group),
))
@example(close_group([RatMatrix.from_rows(g) for g in MIXED_GROUPS["D4_frac"]]))
def test_power_trace_determinants_match_faddeev_leverrier(group):
    assert_determinants_match_oracle(group)


@pytest.mark.parametrize("name", ["f4", "f4_conj", "d5", "s6", "bt", "d4_frac", "swap_frac"])
def test_file_group_determinants_match_faddeev_leverrier(name):
    assert_determinants_match_oracle(_file_group(name))


@pytest.mark.parametrize("name", ["b3", "s4", "f4", "f4_conj", "d5", "bt", "q8", "d4_frac", "swap_frac"])
def test_row_orbit_closure_matches_product_closure(name):
    group = _file_group(name)
    elements, gen_indices, inverses = product_closure([group.matrix(i) for i in group.gen_indices])
    assert list(group.elements) == elements
    assert list(group.gen_indices) == gen_indices
    assert [group.inverse(i) for i in range(group.order)] == [elements[j] for j in inverses]


def assert_inverses_memoised(group: MatGroup) -> None:
    identity = RatMatrix.identity(group.n)
    elements = set(group.elements)
    real = RatMatrix.inverse
    with mock.patch.object(RatMatrix, "inverse", autospec=True, side_effect=real) as inverse:
        first = [group.inverse(i) for i in range(group.order)]
        calls = inverse.call_count
        assert calls == group.order  # one inversion per element of a fresh group
        assert [group.inverse(i) for i in range(group.order)] == first
        assert inverse.call_count == calls  # the second pass built nothing
    for i, inv in enumerate(first):
        assert inv @ group.matrix(i) == identity
        assert group.matrix(i) @ inv == identity
        assert inv in elements


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    signed_permutation_groups(),
    rational_conjugates(),
    mixed_generating_sets().map(close_group),
))
def test_inverse_is_memoised_two_sided_and_an_element(group):
    assert_inverses_memoised(group)


@pytest.mark.parametrize("name", ["f4_conj", "d5", "d4_frac"])
def test_file_group_inverse_is_memoised_two_sided_and_an_element(name):
    assert_inverses_memoised(_file_group(name))


def test_non_integral_power_trace_is_an_internal_error():
    # not a group: [[1, -1/2], [1, 0]] has trace 1 and tr(g^2) = 0, both
    # integers, but det g = 1/2, which Newton's identities must refuse
    group = MatGroup(2, [(1, (1, 0)), (1, (0, 1)), (2, (2, -1))], [(0, 1), (2, 0)], [1])
    with pytest.raises(DimensionMismatchWithMolien, match="is not integral"):
        molien(group)


@pytest.mark.parametrize("argv", [
    ["invariants"],
    ["equivariants"],
    ["molien", "--degrees", "8"],
])
def test_cli_builds_only_generator_matrices(argv, tmp_path, capsys):
    path = os.path.join(GROUPS_DIR, "b3.json")
    b3 = _file_group("b3")
    allowed = set(b3.gen_indices)
    built = []
    real = MatGroup._element

    def record(group, idx):
        built.append(idx)
        return real(group, idx)

    with mock.patch.object(MatGroup, "_element", autospec=True, side_effect=record):
        assert main(argv + ["--group", path, "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert set(built) <= allowed
    assert len(built) == len(set(built))  # each built once
    if argv[0] != "molien":
        assert built
