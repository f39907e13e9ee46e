#!/usr/bin/env python
"""Documentation gate for CI: docstrings + intra-doc links.

Two checks, zero third-party dependencies:

1. **Docstring coverage** — every public module, class, function and public
   method reachable from ``repro.eval`` and ``repro.search`` (the documented
   API surface of docs/api.md) must carry a docstring.  Public means: listed
   in ``__all__`` (for module members) or not underscore-prefixed (for
   methods of public classes); dunder methods and inherited members are
   exempt.

2. **Link integrity** — every relative markdown link in ``docs/*.md`` and
   ``README.md`` must point to an existing file, and fragment links
   (``path#anchor`` or ``#anchor``) must match a heading in the target file
   (GitHub-style slugs).

3. **Engine guide coverage** — every search engine shipped in
   ``repro.search`` (every exported ``Searcher`` subclass) must have a
   section heading in ``docs/search.md`` naming its registry identifier, so
   a new engine cannot land undocumented.

4. **Topology guide coverage** — every topology class exported by
   ``repro.noc`` must have a section heading in ``docs/topologies.md``, and
   every registered routing spec (``repro.noc.routing.available_routings``)
   must appear in the guide's spec table, so a new topology or routing
   cannot land undocumented.

Exits non-zero with a list of violations; run from the repository root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Packages whose public API must be fully documented.
PACKAGES = [
    "repro.eval",
    "repro.search",
    "repro.noc",
    "repro.service",
    "repro.scenario",
    "repro.codesign",
]

#: Markdown files whose relative links are verified.
DOC_FILES = sorted(Path(REPO_ROOT, "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


# ----------------------------------------------------------------------
# Docstring coverage
# ----------------------------------------------------------------------
def _public_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    package_path = Path(package.__file__).parent
    for module_file in sorted(package_path.glob("*.py")):
        if module_file.stem.startswith("_"):
            continue
        yield importlib.import_module(f"{package_name}.{module_file.stem}")


def check_docstrings() -> list:
    problems = []
    for package_name in PACKAGES:
        for module in _public_modules(package_name):
            if not (module.__doc__ or "").strip():
                problems.append(f"{module.__name__}: missing module docstring")
            exported = getattr(module, "__all__", None)
            if exported is None:
                problems.append(f"{module.__name__}: missing __all__")
                continue
            for name in exported:
                member = getattr(module, name, None)
                if member is None:
                    problems.append(f"{module.__name__}.{name}: in __all__ but undefined")
                    continue
                if not (inspect.isclass(member) or inspect.isfunction(member)):
                    continue  # constants and aliases need no docstring
                if not (inspect.getdoc(member) or "").strip():
                    problems.append(f"{module.__name__}.{name}: missing docstring")
                if inspect.isclass(member):
                    problems.extend(_check_methods(module.__name__, member))
    return problems


def _check_methods(module_name: str, cls: type) -> list:
    problems = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        func = None
        if inspect.isfunction(member):
            func = member
        elif isinstance(member, (classmethod, staticmethod)):
            func = member.__func__
        elif isinstance(member, property):
            func = member.fget
        if func is None:
            continue
        if not (inspect.getdoc(func) or "").strip():
            problems.append(f"{module_name}.{cls.__name__}.{name}: missing docstring")
    return problems


# ----------------------------------------------------------------------
# Intra-doc links
# ----------------------------------------------------------------------
def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"[`*]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(markdown: str) -> set:
    return {_slugify(match) for match in _HEADING_RE.findall(markdown)}


def check_links() -> list:
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"{doc.relative_to(REPO_ROOT)}: file missing")
            continue
        text = doc.read_text()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part).resolve() if path_part else doc
            label = f"{doc.relative_to(REPO_ROOT)} -> {target}"
            if path_part and not resolved.exists():
                problems.append(f"{label}: target does not exist")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in _anchors(resolved.read_text()):
                    problems.append(f"{label}: no heading for anchor #{fragment}")
    return problems


# ----------------------------------------------------------------------
# Engine guide coverage
# ----------------------------------------------------------------------
def check_engine_sections() -> list:
    """Every shipped search engine needs a section in docs/search.md."""
    import repro.search as search_package
    from repro.search.base import Searcher

    guide = REPO_ROOT / "docs" / "search.md"
    if not guide.exists():
        return ["docs/search.md: file missing (the search-engine guide)"]
    headings = [heading.lower() for heading in _HEADING_RE.findall(guide.read_text())]
    problems = []
    for name in search_package.__all__:
        member = getattr(search_package, name, None)
        if (
            not inspect.isclass(member)
            or not issubclass(member, Searcher)
            or member is Searcher
        ):
            continue
        engine = member.name.lower()
        if not any(engine in heading for heading in headings):
            problems.append(
                f"docs/search.md: no section heading names engine "
                f"{member.name!r} ({member.__name__})"
            )
    return problems


# ----------------------------------------------------------------------
# Topology guide coverage
# ----------------------------------------------------------------------
def check_topology_sections() -> list:
    """Every shipped topology and routing spec needs docs/topologies.md cover."""
    import repro.noc as noc_package
    from repro.noc.routing import available_routings
    from repro.noc.topology import Topology

    guide = REPO_ROOT / "docs" / "topologies.md"
    if not guide.exists():
        return ["docs/topologies.md: file missing (the topology & routing guide)"]
    text = guide.read_text()
    headings = _HEADING_RE.findall(text)
    problems = []
    for name in noc_package.__all__:
        member = getattr(noc_package, name, None)
        if (
            not inspect.isclass(member)
            or not issubclass(member, Topology)
            or member is Topology
        ):
            continue
        if not any(member.__name__ in heading for heading in headings):
            problems.append(
                f"docs/topologies.md: no section heading names topology "
                f"{member.__name__!r}"
            )
    for spec in available_routings():
        if f"`{spec}`" not in text:
            problems.append(
                f"docs/topologies.md: routing spec `{spec}` missing from the "
                f"spec table"
            )
    if "validate_deadlock_free" not in text:
        problems.append(
            "docs/topologies.md: no deadlock-validation guidance "
            "(validate_deadlock_free is never mentioned)"
        )
    return problems


# ----------------------------------------------------------------------
# Bounded-repair contract coverage
# ----------------------------------------------------------------------
def check_repair_sections() -> list:
    """The bounded-repair contract must stay documented end to end.

    ``repro.eval.repair`` is already swept by the docstring check (it lives
    under the ``repro.eval`` package); this check pins the prose half: the
    architecture guide must explain the drift/resync contract under a
    "bounded repair" heading, and the API guide must document the ``repair``
    gate and every :class:`~repro.eval.repair.RepairPolicy` knob, so a new
    knob cannot land undocumented.
    """
    import dataclasses

    from repro.eval.repair import RepairPolicy

    problems = []
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if not architecture.exists():
        problems.append("docs/architecture.md: file missing")
    else:
        headings = _HEADING_RE.findall(architecture.read_text())
        if not any("bounded repair" in heading.lower() for heading in headings):
            problems.append(
                "docs/architecture.md: no section heading names 'bounded "
                "repair' (the CDCM incremental-rescheduling contract)"
            )
    api = REPO_ROOT / "docs" / "api.md"
    if not api.exists():
        problems.append("docs/api.md: file missing")
    else:
        text = api.read_text()
        if "`repair`" not in text:
            problems.append(
                "docs/api.md: the `repair` gate of CdcmEvaluationContext is "
                "undocumented"
            )
        for knob in dataclasses.fields(RepairPolicy):
            if f"`{knob.name}`" not in text:
                problems.append(
                    f"docs/api.md: RepairPolicy knob `{knob.name}` is "
                    f"undocumented"
                )
    return problems


# ----------------------------------------------------------------------
# Mapping-service contract coverage
# ----------------------------------------------------------------------
def check_service_sections() -> list:
    """The mapping-service contracts must stay documented end to end.

    ``repro.service`` modules are swept by the docstring check; this check
    pins the prose half: ``docs/service.md`` must keep a section per
    contract (store key, daemon lifecycle, bit-identity, the
    ComparisonConfig pin), the architecture guide must
    cover the service data flow, and the API guide must document the
    ``backend`` knob of ``ComparisonConfig`` and every ``EvalJob`` field,
    so a new knob cannot land undocumented.
    """
    import dataclasses

    from repro.service.daemon import EvalJob

    problems = []
    guide = REPO_ROOT / "docs" / "service.md"
    if not guide.exists():
        return ["docs/service.md: file missing (the mapping-service guide)"]
    text = guide.read_text()
    headings = [heading.lower() for heading in _HEADING_RE.findall(text)]
    required = {
        "store": "the result-store key anatomy",
        "daemon": "the daemon lifecycle",
        "bit-identity": "the bit-identity contract",
        "comparisonconfig": "the reproduction pin",
    }
    for needle, what in required.items():
        if not any(needle in heading for heading in headings):
            problems.append(
                f"docs/service.md: no section heading names {needle!r} ({what})"
            )
    for symbol in ("ResultStore", "MappingDaemon", "ServiceBackend",
                   "tools/serve.py"):
        if symbol not in text:
            problems.append(f"docs/service.md: {symbol} is never mentioned")
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if architecture.exists():
        arch_headings = _HEADING_RE.findall(architecture.read_text())
        if not any(
            "service" in heading.lower() for heading in arch_headings
        ):
            problems.append(
                "docs/architecture.md: no section heading names the mapping "
                "service (its data flow is undocumented)"
            )
    api = REPO_ROOT / "docs" / "api.md"
    if api.exists():
        api_text = api.read_text()
        if "`ComparisonConfig.backend`" not in api_text:
            problems.append(
                "docs/api.md: the `ComparisonConfig.backend` pin is "
                "undocumented"
            )
        for field in dataclasses.fields(EvalJob):
            if f"`{field.name}" not in api_text and field.name not in api_text:
                problems.append(
                    f"docs/api.md: EvalJob field `{field.name}` is "
                    f"undocumented"
                )
    return problems


# ----------------------------------------------------------------------
# Dynamic-scenario contract coverage
# ----------------------------------------------------------------------
def check_scenario_sections() -> list:
    """The dynamic-scenario contracts must stay documented end to end.

    ``repro.scenario`` modules are swept by the docstring check; this check
    pins the prose half: ``docs/scenarios.md`` must keep a section per
    contract (the event model, the fault/certify/remap data flow, the
    determinism contract, the ComparisonConfig pin), name the load-bearing
    symbols, and the architecture guide must place the scenario layer — so
    a new event kind or runner knob cannot land undocumented.
    """
    problems = []
    guide = REPO_ROOT / "docs" / "scenarios.md"
    if not guide.exists():
        return ["docs/scenarios.md: file missing (the dynamic-scenario guide)"]
    text = guide.read_text()
    headings = [heading.lower() for heading in _HEADING_RE.findall(text)]
    required = {
        "event model": "the typed event vocabulary and script hashing",
        "fault": "the fault/certify/remap data flow",
        "determinism": "the replay determinism contract",
        "comparisonconfig": "the scenario-free reproduction pin",
    }
    for needle, what in required.items():
        if not any(needle in heading for heading in headings):
            problems.append(
                f"docs/scenarios.md: no section heading names {needle!r} "
                f"({what})"
            )
    for symbol in (
        "ScenarioScript",
        "FabricManager",
        "RegionObjective",
        "ScenarioRunner",
        "validate_deadlock_free",
        "IrregularTopology.from_crg",
        "tests/scenario_harness.py",
    ):
        if symbol not in text:
            problems.append(f"docs/scenarios.md: {symbol} is never mentioned")

    from repro.scenario.events import EVENT_TYPES

    for kind in EVENT_TYPES:
        if f"`{kind}`" not in text:
            problems.append(
                f"docs/scenarios.md: event kind `{kind}` is undocumented"
            )
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if architecture.exists():
        arch_headings = _HEADING_RE.findall(architecture.read_text())
        if not any(
            "scenario" in heading.lower() for heading in arch_headings
        ):
            problems.append(
                "docs/architecture.md: no section heading names the "
                "dynamic-scenario layer (its data flow is undocumented)"
            )
    return problems


def check_codesign_sections() -> list:
    """The routing×mapping co-design contracts must stay documented.

    ``repro.codesign`` modules are swept by the docstring check; this check
    pins the prose half: ``docs/codesign.md`` must keep a section per
    contract (the genome model, the certification gate, reference-point
    selection, the ComparisonConfig pin), name the load-bearing symbols,
    and ``docs/search.md`` must cover the ``nsga3`` and ``codesign``
    engines — so a new gate policy or engine knob cannot land undocumented.
    """
    problems = []
    guide = REPO_ROOT / "docs" / "codesign.md"
    if not guide.exists():
        return ["docs/codesign.md: file missing (the co-design guide)"]
    text = guide.read_text()
    headings = [heading.lower() for heading in _HEADING_RE.findall(text)]
    required = {
        "genome": "the (routing table, mapping) genome model",
        "certification gate": "the certify-before-price contract",
        "reference-point": "the NSGA-III niching behind the 3-key front",
        "comparisonconfig": "the reproduction pin",
    }
    for needle, what in required.items():
        if not any(needle in heading for heading in headings):
            problems.append(
                f"docs/codesign.md: no section heading names {needle!r} "
                f"({what})"
            )
    for symbol in (
        "SynthesizedRouting",
        "TableSynthesizer",
        "CodesignSearch",
        "register_synthesized",
        "validate_deadlock_free",
        "max_link_utilisation",
    ):
        if symbol not in text:
            problems.append(f"docs/codesign.md: {symbol} is never mentioned")
    search_guide = REPO_ROOT / "docs" / "search.md"
    if search_guide.exists():
        search_headings = [
            heading.lower()
            for heading in _HEADING_RE.findall(search_guide.read_text())
        ]
        for engine in ("nsga3", "codesign"):
            if not any(engine in heading for heading in search_headings):
                problems.append(
                    f"docs/search.md: no section heading names engine "
                    f"{engine!r}"
                )
    return problems


def main() -> int:
    problems = (
        check_docstrings()
        + check_links()
        + check_engine_sections()
        + check_topology_sections()
        + check_repair_sections()
        + check_service_sections()
        + check_scenario_sections()
        + check_codesign_sections()
    )
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("check_docs: all docstrings present, all intra-doc links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
