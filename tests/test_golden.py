"""Byte-identity guard for `run_search` and `check_model`.

The sha256 digests below were recorded before the scan was rebuilt around
per-type stage tables.  Any change to the bytes of a record (key order,
verdict fields, the emission rule, the summary line) changes a digest.
Every box uses ample polarizations only, so each one is a valid config.
"""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from cybundle.bundles import PullbackBundle, SpectralBundle
from cybundle.ring import DivisorX
from cybundle.search import Polarization, SearchConfig, check_model, run_search
from cybundle.surfaces import DivisorClass, make_base

BOXES = {
    "f0-pullback": {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [-1, 1, 2],
        "alpha_box": [[-2, 1], [-1, 1]],
        "c2E_range": [100, 102],
        "h_values": ["1", "3/2"],
    },
    "f0-pullback-w-zero": {
        "base": "F0",
        "mode": "pullback",
        "n_range": [3, 3],
        "x_values": [1],
        "alpha_box": [[-2, 0], [-2, 0]],
        "c2E_range": [102, 106],
        "h_values": ["1"],
        "require": "W_zero",
    },
    "f0-spectral": {
        "base": "F0",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[-1, 1], [-12, -10]],
        "lambda_values": ["1/2", "3/2", "1"],
        "H_values": [[3, 34]],
        "h_values": ["2"],
    },
    "dp6-w-effective": {
        "base": "dP6",
        "mode": "pullback",
        "n_range": [2, 2],
        "x_values": [-1, 1],
        "alpha_box": [[-3, 0], [-1, 1]],
        "c2E_range": [0, 0],
        "h_values": ["1", "2"],
        "require": "W_effective",
    },
    "enriques-pullback": {
        "base": "enriques",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [-1, 1, 3],
        "alpha_box": [[-2, 2], [-2, 2]],
        "c2E_range": [12, 12],
        "H_values": [[2, 3], [2, 2]],
    },
    "enriques-spectral": {
        "base": "enriques",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[-1, 1], [-1, 1]],
        "eta_box": [[2, 3], [3, 3]],
        "lambda_values": ["1/2", "3/2"],
        "H_values": [[5, 6], [3, 4]],
    },
}

SEARCH_SHA256 = {
    "dp6-w-effective": "c63ba9dde16b23be305a4e679703d9124850b8e816d4c2de968c749cb099ef3d",
    "enriques-pullback": "f97ba1e80e2f5083c175299b2df4953564210651b7a9c49b86cec885dd3ff72c",
    "enriques-spectral": "a5d83990495e7c72a7ab6b53fa6e0bb603bebf28a30f22f6f7f865ead851b987",
    "f0-pullback": "2b82964abd35eb55bb357a98e6f55ee5bd021b71c7e563d9f8663526c00f0c6c",
    "f0-pullback-w-zero": "c06b8064254c859106b099d7a628b4f5d4fc55b26a1f2a2376b186acd1d49e20",
    "f0-spectral": "1b25e496664fafec82491db183ef69ee253b60db2fdaf40eec7a0ef780c98680",
}

CHECK_SHA256 = {
    "dp6-w-effective": "f6851be63138d30b89af53fce8f6d678c8dba5d7bf25f9b8c4b8e7cb447dd230",
    "enriques-pullback": "6e95bcf8612aa7c3b097f50aee354f7452f9f7f4a291d65715245c5e6c7a5ab6",
    "enriques-spectral": "4d5cb1cafab9567f446c0f46c7554f8d7fdcec73433ff321a524c315e77de1e8",
    "f0-pullback": "9387ea68a7a6b05947221bdd3d52a1ae0960bad6b5668ca5734455ecbe7da8e6",
    "f0-pullback-w-zero": "83b7e971fff6ae617d7b18eaf3d37aebf5dfd592f4f81a50c7cda03f5e1b1e5f",
    "f0-spectral": "a23b0cb51484face03b73ec340d1bb7df6a48273773815a600ed0335fd78a1ee",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def search_text(name: str) -> str:
    out = io.StringIO()
    run_search(SearchConfig.from_json(BOXES[name]), out=out)
    return out.getvalue()


def check_text(name: str) -> str:
    """Every model of the box, rebuilt from its params, through all stages."""
    config = SearchConfig.from_json(dict(BOXES[name], require=None))
    s = make_base(config.base)
    out = io.StringIO()
    run_search(config, out=out)
    lines = []
    for line in out.getvalue().splitlines()[:-1]:
        params = json.loads(line)["params"]
        alpha = DivisorClass(tuple(int(c) for c in params["alpha"]))
        if config.mode == "pullback":
            bundle = PullbackBundle(
                n=params["n"], c2E=params["c2E"], twist=DivisorX(params["x"], alpha)
            )
        else:
            bundle = SpectralBundle(
                n=params["n"],
                eta=DivisorClass(tuple(int(c) for c in params["eta"])),
                lam=Fraction(params["lambda"]),
                twist=DivisorX(0, alpha),
            )
        if "H" in params:
            coeffs = tuple(params["H"]) + (0,) * (s.rank - len(params["H"]))
            pol = Polarization(H=DivisorClass(coeffs))
        else:
            pol = Polarization(h=Fraction(params["h"]))
        record = check_model(
            s,
            bundle,
            pol,
            require=BOXES[name].get("require"),
            short_circuit=False,
            params=params,
        )
        lines.append(record.to_json_line() + "\n")
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_search_output_unchanged(name):
    assert _digest(search_text(name)) == SEARCH_SHA256[name]


@pytest.mark.parametrize("name", sorted(BOXES))
def test_check_model_output_unchanged(name):
    assert _digest(check_text(name)) == CHECK_SHA256[name]
