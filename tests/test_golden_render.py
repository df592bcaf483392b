"""Golden canonical renders: the text form of the paper's operators is pinned.

``golden_renders.json`` holds the renders of every generator, every sp(4)
bilinear and both sides of every su(1,1), Weyl and Casimir report, plus a
sha256 over the renders of the c13 seed set.  The values were produced by the
nested-coefficient implementation that preceded the flat atom map; any change
to the coefficient storage must reproduce them byte for byte.
"""

import hashlib
import json
import random
from pathlib import Path

from ladder_forge import generators as gen
from ladder_forge import opdsl

from _gen import random_operator

GOLDEN_PATH = Path(__file__).with_name("golden_renders.json")


def corpus() -> dict[str, str]:
    out = {}
    for kind, members in (("T", gen.build_T()), ("AB", gen.build_AB()),
                          ("sp4", gen.sp4_bilinears())):
        for name, op in members.items():
            out[f"{kind}/{name}"] = opdsl.render(op)
    for rep in gen.su11_reports() + gen.weyl_reports() + gen.casimir_reports():
        out[f"report/{rep.name}/lhs"] = opdsl.render(rep.lhs)
        out[f"report/{rep.name}/residual"] = opdsl.render(rep.residual)
    rng = random.Random(13131313)
    c13 = "\n".join(opdsl.render(random_operator(rng)) for _ in range(1000))
    out["c13/sha256"] = hashlib.sha256(c13.encode()).hexdigest()
    return out


def test_renders_match_golden():
    assert corpus() == json.loads(GOLDEN_PATH.read_text())
