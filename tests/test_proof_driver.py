"""The tagged-stream contract both proof families share.

The per-layer benchmark trace replays ``iter_tagged_lines`` and relies on it
carrying exactly the lines of ``iter_proof_lines``, under a fixed tag set,
with every ``delete`` block removing the layer the iteration just consumed.
"""

import pytest

from pigeonproof import php_standard, proof_cook, proof_ours

FAMILY_TAGS = {
    "ours": (proof_ours, {"definition", "y-definition", "derived", "alo", "delete", "empty"}),
    "cook": (proof_cook, {"definition", "pair", "alo", "delete", "empty"}),
}


@pytest.mark.parametrize("deletions", [False, True])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("style", sorted(FAMILY_TAGS))
def test_tagged_stream_contract(style, n, deletions):
    module, family_tags = FAMILY_TAGS[style]
    tagged = list(module.iter_tagged_lines(n, emit_deletions=deletions))

    assert [line for _, _, line in tagged] == list(
        module.iter_proof_lines(n, emit_deletions=deletions)
    )

    expected_tags = set(family_tags)
    if not deletions:
        expected_tags.discard("delete")
    if n < 5:
        # group auxiliaries appear only once a layer has five pigeons (k >= 4)
        expected_tags.discard("y-definition")
    assert {tag for tag, _, _ in tagged} == expected_tags

    added: dict[int, list] = {}
    deleted: dict[int, list] = {}
    for tag, k, line in tagged:
        if tag == "delete":
            assert line.delete
            deleted.setdefault(k, []).append(line.lits)
        elif tag != "empty":
            assert not line.delete
            added.setdefault(k, []).append(line.lits)
    assert sorted(added) == list(range(1, n))
    if deletions:
        assert sorted(deleted) == list(range(1, n))
        assert deleted[n - 1] == list(php_standard(n).clauses)
        for k in range(1, n - 1):
            assert deleted[k] == added[k + 1], k
    else:
        assert deleted == {}
