"""Every public name of ``misspec`` is used by the package or named in README.md,
and every posterior metric has one route.

So API that no package code runs and no reader is told about, and a second
route beside ``_PosteriorPath``, cannot grow back.
"""

import ast
import inspect
import re
from pathlib import Path

import misspec

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_or_documented():
    # Names the package reads, bare or as attributes, outside its re-exports.
    used = set()
    for path in (ROOT / "src" / "misspec").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                used.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    public = [n for n, obj in vars(misspec).items() if not n.startswith("_") and not inspect.ismodule(obj)]
    assert len(public) > 20
    neither = [n for n in public if n not in used and not re.search(rf"\b{n}\b", readme)]
    assert neither == [], f"public names neither used in src/misspec nor named in README.md: {neither}"


def test_each_posterior_metric_has_one_route():
    # Closed forms, mixtures and the sweeps read the mass outside a ball, the TV
    # distance and the marginal sds off ``_PosteriorPath``: each kernel has one
    # call site in src/misspec.
    calls = {"_angular_mass": 0, "_mass_outside_interval": 0, "_normal_tvs": 0, "_radial_tv": 0, "_sds": 0}
    for path in (ROOT / "src" / "misspec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name in calls:
                    calls[name] += 1
    assert calls == dict.fromkeys(calls, 1)
