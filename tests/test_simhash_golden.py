"""Golden fingerprints and a scalar oracle for the simhash vote kernel.

:func:`repro.core.simhash.simhash` votes with a numpy mat-vec over the
unpacked shingle digests.  The literals below were computed by the
original per-bit Python loop, which lives on here as
:func:`scalar_simhash`: every fingerprint the kernel produces must equal
the loop's, bit for bit, because stored simhashes and the clustering
goldens depend on them.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simhash import (
    _VOTE_ROWS,
    HASH_BITS,
    shingles,
    simhash,
    tokenize,
)
from repro.workloads import ec2_scenario


def scalar_simhash(text: str, *, shingle_width: int = 3) -> int:
    """Reference Charikar vote: +weight / -weight per bit, per shingle."""
    tokens = tokenize(text)
    if not tokens:
        return 0
    weights = Counter(shingles(tokens, shingle_width))
    votes = [0] * HASH_BITS
    for feature, weight in weights.items():
        digest = hashlib.blake2b(
            feature.encode("utf-8"), digest_size=12
        ).digest()
        value = int.from_bytes(digest, "big")
        for bit in range(HASH_BITS):
            if value & (1 << bit):
                votes[bit] += weight
            else:
                votes[bit] -= weight
    fingerprint = 0
    for bit in range(HASH_BITS):
        if votes[bit] > 0:
            fingerprint |= 1 << bit
    return fingerprint


def _feature_value(feature: str) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=12).digest()
    return int.from_bytes(digest, "big")


def big_page() -> str:
    """A deterministic ≈100 KB HTML page: ≈12k shingles, nearly all
    distinct, so the vote spans several row blocks."""
    rng = random.Random(20140624)
    words = ["cloud", "tenant", "region", "instance", "bucket", "vpc",
             "elastic", "zone", "deploy", "scan", "round", "page", "server",
             "nginx", "apache"]
    parts = ["<html><head><title>big</title></head><body>"]
    size = len(parts[0])
    while size < 100_000:
        line = "<p>" + " ".join(
            f"{rng.choice(words)}{rng.randrange(8)}" for _ in range(12)
        ) + "</p>\n"
        parts.append(line)
        size += len(line)
    parts.append("</body></html>")
    return "".join(parts)


TWO_SHINGLES = "alpha beta gamma delta"

GOLDEN = {
    "empty": ("", 0x0),
    "markup_only": (
        "<html><head></head><body><br/><div class='x'></div></body></html>",
        0x0,
    ),
    "fewer_tokens_than_width": ("Hello world", 0x38E467860ACCECF39390EA03),
    "repeated_shingles": (
        "a b c a b c a b c a b c d", 0xC28494A534D40AC44FFF32C4
    ),
    "two_shingles": (TWO_SHINGLES, 0x202111026005060AA0088A1),
}

BIG_PAGE_FINGERPRINT = 0x5E8346078FFBF090E60E9C5F

#: Home pages of the first eight content services of
#: ``ec2_scenario(total_ips=1024, seed=3, duration_days=4)``, keyed by
#: service id: (body length, fingerprint).
SIMULATOR_PAGES = {
    1: (3230, 0xA0E58CD34A11A92B4EB0239F),
    2: (1792, 0x44AF78137F5986311BE26864),
    3: (1728, 0x87B6F7B98C607C37317F1361),
    4: (299, 0x422D2FD7127B5A2F712B21DD),
    5: (1468, 0xB814CD7411627C5E1AA88383),
    6: (3068, 0xD8774C2025D459CA9306CED1),
    7: (3062, 0x8465E8E388DFF4E2D17379C4),
    8: (3130, 0xE2258459F4562F62FF7214C1),
}


@pytest.fixture(scope="module")
def simulator_pages() -> dict[int, str]:
    scenario = ec2_scenario(total_ips=1024, seed=3, duration_days=4)
    services = sorted(
        (s for s in scenario.simulation.services.values()
         if s.profile is not None),
        key=lambda s: s.service_id,
    )
    return {
        s.service_id: s.profile.render(s.major_version, s.revision)
        for s in services[: len(SIMULATOR_PAGES)]
    }


class TestGoldenFingerprints:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_literal(self, case):
        text, expected = GOLDEN[case]
        assert simhash(text) == expected
        assert scalar_simhash(text) == expected

    def test_repeated_shingles_carry_weight(self):
        text, _ = GOLDEN["repeated_shingles"]
        weights = Counter(shingles(tokenize(text), 3))
        assert max(weights.values()) > 1

    def test_zero_vote_bits_stay_unset(self):
        # Two weight-1 shingles: wherever their hashes disagree the vote
        # is exactly 0, and only a strictly positive vote sets a bit.
        first, second = shingles(tokenize(TWO_SHINGLES), 3)
        a, b = _feature_value(first), _feature_value(second)
        assert a != b
        assert simhash(TWO_SHINGLES) == a & b

    def test_big_page(self):
        page = big_page()
        assert len(page) >= 100_000
        distinct = len(Counter(shingles(tokenize(page), 3)))
        assert distinct > 2 * _VOTE_ROWS
        assert simhash(page) == BIG_PAGE_FINGERPRINT

    def test_simulator_pages(self, simulator_pages):
        assert sorted(simulator_pages) == sorted(SIMULATOR_PAGES)
        for service_id, body in simulator_pages.items():
            length, expected = SIMULATOR_PAGES[service_id]
            assert len(body) == length
            assert simhash(body) == expected, service_id


WORDS = ["alpha", "beta", "gamma", "Delta", "42", "x", "<b>", "</b>",
         "<a href='/p'>", "é", "\n"]

texts = st.one_of(
    st.text(max_size=300),
    st.lists(st.sampled_from(WORDS), max_size=60).map(" ".join),
)


class TestScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(text=texts, width=st.integers(1, 5))
    def test_kernel_equals_oracle(self, text, width):
        assert simhash(text, shingle_width=width) == scalar_simhash(
            text, shingle_width=width
        )

    def test_oracle_on_simulator_pages(self, simulator_pages):
        for body in simulator_pages.values():
            for width in range(1, 6):
                assert simhash(body, shingle_width=width) == scalar_simhash(
                    body, shingle_width=width
                )
