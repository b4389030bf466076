"""Byte-for-byte pins of full runs, for changes that must keep every output.

Each pair goes through ``analyze_pair``, ``run_document`` and
``render_run``; the sha256 of the canonical JSON document and of the
rendered text are compared with digests recorded before field elements
moved from per-coordinate fractions to integer numerators over one
denominator.  The pairs are the holomorphic worked examples and eight
seeded products of distinct ``x^k - c*y^m`` factors (k in {2, 3},
c = +-b^k) that restart to Q(zeta_12), so arithmetic on non-rational
elements is pinned as well as rational arithmetic.
"""

import hashlib
import json
import random

import pytest

from polartree import FIXTURES
from polartree.pipeline import analyze_pair, render_run, run_document


def _ramified_pair(seed: int) -> tuple[str, str]:
    rng = random.Random(f"identity:{seed}")
    chosen: list[tuple[int, int, int]] = []
    while len(chosen) < 3:
        k = 3 if not chosen else rng.choice((2, 3))  # a cube root forces zeta_12
        m = rng.choice({2: (3, 5), 3: (2, 4, 5)}[k])
        c = rng.choice((1, -1)) * rng.choice((1, 2)) ** k
        if (k, m, c) not in chosen:
            chosen.append((k, m, c))
    rng.shuffle(chosen)
    text = [f"(x^{k} {'-' if c > 0 else '+'} {abs(c)}*y^{m})" for k, m, c in chosen]
    cut = 2 if seed % 2 else 1
    return "*".join(text[:cut]), "*".join(text[cut:])


PAIRS = {name: (fx.f, fx.g) for name, fx in FIXTURES.items() if not fx.laurent}
PAIRS.update({f"ram{seed}": _ramified_pair(seed) for seed in range(8)})

# name -> (field conductor, sha256 of the JSON document, sha256 of the text)
GOLDEN = {
    "cusp34": (12,
        "6dc9859a0603c3c2fa91fb28c82bef6acbb4542c80556e4eb51ce392c30fcec0",
        "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    "ex11": (4,
        "0f0afe71b41f4ae8af9fdfbcf1259201f14a3fb1fe8e2a76a585040f685249f0",
        "42439474c96de9913bfd4aa8c87e14b03149ee021cc722fafd4be09ed8b4141f"),
    "ex11-degenerate": (4,
        "98f7860e59173705bec6583f041a8cbb2e6e1d21969f91e6c4e6c18a06b3703d",
        "58f28e768d4c5d93a8e3ee98b19a452dc15ce7fa7dece2bf0e2e2ca2289faa9b"),
    "ex11-neg": (12,
        "938eca4a531c71c26de2cbca449101efb10e5b3d0a3a7445b6bf19d5080c849a",
        "7ee5079794683093a3812b63c7de9c67b3aa7a2fe7fd22e2792346ccc5700875"),
    "ex61": (4,
        "662dabc3b27eb4f7725d74208de1e09b97f92e237344a0716d0401e42b831b90",
        "202b035912fc8efa69a0539a856ab715dab1ad2496fda81ff3e1b83e58c8493e"),
    "ex61-e9": (4,
        "6ae66e5d013ecea2035e0a5eabb1acd08df1d17b27c1b5772696103ada557421",
        "9bfab33cdee89bbca8a3b6535e52875b9cefa5f253a123f0918b6daa0a0eee4f"),
    "ex82": (12,
        "6dc9859a0603c3c2fa91fb28c82bef6acbb4542c80556e4eb51ce392c30fcec0",
        "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    "ex82-prime": (12,
        "4468579fca81a4c91f2965a39e0312bffcb1fd8ade69984f98972a3de43db301",
        "cb5c1949f95950f4a112c6c743da6c20acb5650bc0a660db525abf7d797c92be"),
    "ex82-second": (12,
        "3648a9ed70eddbaf2add4acdf9840375a3a077a1c99afc831d58239354970e58",
        "9c452cb95409334bb9daf2490c4eb085ac32d7d458525315cfe94d7e2ac9e71a"),
    "ex91": (4,
        "778058106ddab4a1d7b3c7efd92d77eb52870b2297afe5c679b572088305e616",
        "88dfdfeabed0d51b4c807e1031490f96e771d29b4e9869022288a623ba7c163b"),
    "ex91-second": (4,
        "8321580ec8d108dcc5905dbd29be4a3838ec0b6761fa5000090ebf369c37ca2b",
        "1b512481f92e4e29b9b9e3fbbad433c671ba10f1467135bb34a970e4f1e5df5a"),
    "fig2": (4,
        "2b741d394258ae7c38181a520e66cbccd5beda9837828c44a6ceef00c16c3331",
        "4800ab7874ed25bfaa41ec6f37d442ef8f1023bed73fef43a7fd28c40c9c4472"),
    "merle2pair": (4,
        "98a7aaa32186a0f2871b3b6755034cbf620c80b860fdaccae215d8d57a5217ab",
        "ed75d7f407d2f63b7050d51f7275985e8f8685d7c9a18a275595d82cf9381a4c"),
    "ram0": (12,
        "f44224686398dfda3ffd63d847dcde2589560278a61f8f3b8aa332a9df2ffb14",
        "3fdc205b266ab82c21d3bbd9d07223daa57d2b748ba1debed10653bcdea5e6d2"),
    "ram1": (12,
        "1c3dc5e4c8cbe7211adc2623bb7b25671a84eaa031dae089e731222569d28771",
        "ca4ab5a903c0ef1264cb9f2c0897bfead4147e5cdf5a265de6c383c273a9f9e8"),
    "ram2": (12,
        "344ca61550f2a18043dd908379d30ea1646cde8f1c3129a07b8265992727d727",
        "677e713e415cebee8b5f49141903a7e4a243964cc9728a0d8006d557b4bab839"),
    "ram3": (12,
        "7fa2f8b58751e901ee7243bd43b038bcdffbfb2ae665a4cb50dc820046a57b65",
        "7cd14e935c19c0a4917af4c1c9ddc7b712a92b8b1d177801a04e2d48b6813412"),
    "ram4": (12,
        "bb04de803e5130378e508b2c72503cb71a96375956a07395cac881c94b554bbf",
        "201478f627b5d1707596c942c6b1e0d0117f8a06e3c21cbef9fc6d1c8e400601"),
    "ram5": (12,
        "9960bcad46248f56f6931853999d54adb709289293fba515a5d1d8666ee13ef6",
        "bab757a657f355fbbb996e78209c93201e779a887f46d1bfb8e680e9e04954a6"),
    "ram6": (12,
        "d06a407b74d37d6f79f74a1e536b64db89f7ffc515746254bcdc2fbfb9087139",
        "d4b5d052963aa896666bf509606a7cde5e92cb4c845d24502a4c46db8407c206"),
    "ram7": (12,
        "89584d5e7c499676f8739d7cb31502682e43525e5ff6225020b0b03e42892917",
        "31fc8efb2632ab6b9f61ad2670c22a47bf021ab4e49076000ef6bba4c5b9180a"),
    "sec2": (4,
        "8c11e4795ea3ad20fd8b49cde6c7b39baefa29b94c2af2d71e17a44c633e323e",
        "cee4b8d5864b34f676bf28030951a794b8c998c31d653654e187c04facfb46fb"),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_run_output_is_unchanged(name):
    run = analyze_pair(*PAIRS[name])
    doc = json.dumps(run_document(run), indent=1, sort_keys=True)
    text = render_run(run)
    assert run.verification.passed
    assert (run.field.conductor,
            hashlib.sha256(doc.encode()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest()) == GOLDEN[name]
