"""The shared weak-cover map and check, the char-set checks and the backward
basis against the per-family versions they replaced (tests/helpers.py), on
random machines, random covers and characterization sets, and mutated tables."""

import random

import pytest

from helpers import (
    random_fsm,
    random_rna,
    random_wa,
    reference_backward_basis,
    reference_is_char_set,
    reference_is_char_set_rna,
    reference_verify_weak_cover,
    reference_verify_weak_cover_rna,
    reference_weak_cover_map,
    reference_weak_cover_map_rna,
)
from wmethod import (
    Suite,
    backward_basis,
    gen_mutants_fsm,
    is_char_set,
    is_char_set_rna,
    minimize,
    patterns_upto,
    state_cover,
    state_cover_rna,
    verify_weak_cover,
    verify_weak_cover_rna,
    weak_cover_map,
    weak_cover_map_rna,
    words_upto,
)
from wmethod.faultsim import MutationSpec
from wmethod.nominal import OrbitSuite, extension_choices
from wmethod.words import Word

# the wordings that tests match, kept by the shared map and check
WORDINGS = ("not total", "outside the cover", "not covered")


def outcome(f, *args):
    """f's result, or the type of its exception and the kept wordings in its message."""
    try:
        return f(*args)
    except Exception as e:  # any type: a differing one fails the comparison
        return type(e), tuple(x for x in WORDINGS if x in str(e))


def subset(rng: random.Random, items: list, density: float = 0.4) -> list:
    """A random subset of items, mostly with the first (the empty word)."""
    rest = [x for x in items[1:] if rng.random() < density]
    return [items[0]] * (rng.random() < 0.85) + rest


def tables(rng: random.Random, p: list, delta_p: dict, outside) -> list[dict]:
    """delta_p with one entry dropped, one sent outside p, one sent to a random
    word of p, and a table of random words of p."""
    if not delta_p:
        return [delta_p]
    keys = list(delta_p)
    key = rng.choice(keys)
    dropped = {k: v for k, v in delta_p.items() if k != key}
    moved = {**delta_p, key: outside}
    shuffled = {**delta_p, key: rng.choice(p)}
    return [delta_p, dropped, moved, shuffled, {k: rng.choice(p) for k in keys}]


def check_cover(family, m, p, rng: random.Random, outside) -> None:
    """The map of m and p, and the check of it and of mutated tables, against
    the references. When p is no weak cover, a table of random words of p is checked."""
    cover_map, verify, ref_map, ref_verify, letters = family
    got = outcome(cover_map, m, p)
    assert got == outcome(ref_map, m, p)
    items = list(p)
    if isinstance(got, dict):
        candidates = tables(rng, items, got, outside)
    else:
        candidates = [{(w, c): rng.choice(items) for w in items for c in letters(m, w)}]
    for table in candidates:
        assert outcome(verify, m, p, table) == outcome(ref_verify, m, p, table)


FSM = (
    weak_cover_map,
    verify_weak_cover,
    reference_weak_cover_map,
    reference_verify_weak_cover,
    lambda m, w: range(len(m.alphabet)),
)
RNA = (
    weak_cover_map_rna,
    verify_weak_cover_rna,
    reference_weak_cover_map_rna,
    reference_verify_weak_cover_rna,
    lambda a, w: extension_choices(w),
)


@pytest.mark.parametrize("kind", ["dfa", "moore", "mealy"])
def test_fsm_cover_map_and_check_match_the_reference(kind):
    rng = random.Random(f"cover-{kind}")
    for _ in range(150):
        m = random_fsm(rng, max_states=5, kind=kind)
        ball = list(words_upto(m.alphabet, 3))
        covers = [Suite.of(m.alphabet, subset(rng, ball)) for _ in range(3)]
        spec = minimize(m)
        p = state_cover(spec)
        covers.append(p)
        # mutants, some with extra states, some of them outside the cover's domain
        outside = Word((0,) * 6)
        for mut in gen_mutants_fsm(spec, MutationSpec(2, 3, rng.randrange(1000))):
            check_cover(FSM, mut, p, rng, outside)
        for c in covers:
            check_cover(FSM, m, c, rng, outside)


def test_rna_cover_map_and_check_match_the_reference():
    rng = random.Random("cover-rna")
    outside = patterns_upto(5).patterns[-1]
    for _ in range(150):
        a = random_rna(rng, max_locs=4, max_arity=2)
        ball = list(patterns_upto(3))
        covers = [OrbitSuite(tuple(subset(rng, ball))) for _ in range(3)]
        covers.append(state_cover_rna(a))
        # another machine's state cover: often no weak cover of a
        covers.append(state_cover_rna(random_rna(rng, max_locs=4, max_arity=2)))
        for p in covers:
            check_cover(RNA, a, p, rng, outside)


@pytest.mark.parametrize("kind", ["dfa", "moore", "mealy"])
def test_is_char_set_matches_the_grouping_reference(kind):
    rng = random.Random(f"charset-{kind}")
    for _ in range(300):
        m = random_fsm(rng, max_states=6, kind=kind)
        ball = list(words_upto(m.alphabet, 3))
        w = Suite.of(m.alphabet, subset(rng, ball))
        assert outcome(is_char_set, m, w) == outcome(reference_is_char_set, m, w)


def test_is_char_set_rna_matches_the_instantiation_reference():
    rng = random.Random("charset-rna")
    ball = list(patterns_upto(3))
    for _ in range(200):
        a = random_rna(rng, max_locs=4, max_arity=2)
        w = OrbitSuite(tuple(subset(rng, ball, 0.1)))  # sparse, so that some are no char set
        assert outcome(is_char_set_rna, a, w) == outcome(reference_is_char_set_rna, a, w)


def test_backward_basis_needs_no_sort():
    rng = random.Random("backward")
    for _ in range(300):
        a = random_wa(rng, max_dim=4, syms=rng.randint(1, 3))
        got, ref = backward_basis(a), reference_backward_basis(a)
        assert got.witnesses == ref.witnesses
        assert got.vectors == ref.vectors
