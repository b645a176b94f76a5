"""A refused parameter is a ``ParameterError``, not a cryptographic failure.

An ``except CryptoError`` around key generation must not swallow a
refused cache size or a manifest this build cannot rebuild.
"""

import json

import pytest

from repro.core.persistence import load_system
from repro.core.proofcache import VerificationCache
from repro.errors import CryptoError, ParameterError, ReproError


def test_parameter_refusals_are_not_crypto_errors(tmp_path):
    assert issubclass(ParameterError, ReproError)
    assert not issubclass(ParameterError, CryptoError)
    with pytest.raises(ParameterError) as cache_size:
        VerificationCache(maxsize=0)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"config": {"filter_bits": 128}})
    )
    with pytest.raises(ParameterError, match="128-bit") as filter_width:
        load_system(tmp_path)
    for refused in (cache_size.value, filter_width.value):
        assert not isinstance(refused, CryptoError)
