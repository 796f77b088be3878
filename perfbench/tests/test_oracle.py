"""Self-test: the correctness oracle counts every kind of bad reply."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checkout  # noqa: E402

checkout.use_src()

from oracle import Oracle  # noqa: E402

from repro.matrices import from_spec  # noqa: E402
from repro.runtime import SpmmRequest, SpmmRuntime  # noqa: E402

SPEC = "uniform:96:80:0.05:3"
K, SEED = 8, 5


def reply_digest():
    """What a correct system returns: a fresh, independent serial run."""
    runtime = SpmmRuntime(Oracle().config)
    return runtime.run(SpmmRequest(from_spec(SPEC), k=K, seed=SEED)).record.digest()


def test_matching_digest_is_not_a_failure():
    assert not Oracle().is_failure(SPEC, K, SEED, 200, reply_digest())


def test_tampered_digest_is_a_failure():
    digest = reply_digest()
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert Oracle().is_failure(SPEC, K, SEED, 200, tampered)


def test_bad_status_and_missing_reply_are_failures():
    oracle = Oracle()
    digest = reply_digest()
    assert oracle.is_failure(SPEC, K, SEED, 429, digest)
    assert oracle.is_failure(SPEC, K, SEED, 500, digest)
    assert oracle.is_failure(SPEC, K, SEED, None, None)


def test_reference_depends_on_the_rung():
    oracle = Oracle()
    assert oracle.digest(SPEC, K, SEED, rung=2) != oracle.digest(SPEC, K, SEED)
