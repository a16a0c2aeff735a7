"""Every process-wide cache in src/orbkit is one that its traffic pays for.

A functools cache or lru_cache keeps its results for the life of the
process, so one that no caller repeats costs a hash of its key per call
and the memory it holds, and saves nothing.  So cache and lru_cache are
used in src/orbkit only as decorators of the functions in ALLOWED, each
named with the repeated calls that justify its cache, and every entry
of ALLOWED is still a cached function.  A use counts by its name, as
a decorator or anywhere else; cached_property, which lives and dies
with one object, is not such a cache.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbkit"

CACHES = ("cache", "lru_cache")

ALLOWED = {
    ("fpgroup.py", "_plan"):
        "a pi1_certify loop asks again for the same six presentations, "
        "and a CLI process reads its one plan twice, in abelianize and "
        "in coset_enumerate",
    ("fpgroup.py", "_fixed_relators"):
        "every orbifold presentation, at any prime, shares the 45 "
        "relators that do not depend on p",
}


def _names_a_cache(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id in CACHES)
            or (isinstance(node, ast.Attribute) and node.attr in CACHES))


def _uses(name: str, tree):
    """(name, decorated function name) of each cache decorator in tree,
    and (name, None) of each other use of a cache."""
    decorating = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                found = [id(n) for n in ast.walk(d) if _names_a_cache(n)]
                decorating.update(found)
                if found:
                    yield name, node.name
    for node in ast.walk(tree):
        if _names_a_cache(node) and id(node) not in decorating:
            yield name, None


def test_caches_are_only_those_allowed():
    uses = [use for path in sorted(SRC.glob("*.py"))
            for use in _uses(path.name,
                             ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(uses, key=str) == sorted(ALLOWED, key=str)


def test_a_cache_is_seen_however_it_is_written():
    code = ("import functools\n"
            "f = lru_cache()(len)\n"
            "@functools.cache\n"
            "def g(): pass\n")
    assert sorted(_uses("x.py", ast.parse(code)), key=str) == [
        ("x.py", "g"), ("x.py", None)]
