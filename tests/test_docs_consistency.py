"""Docs-consistency check: the documentation cannot silently rot.

Asserts that everything the observability layer, the fault subsystem and
the CLI expose is actually documented: every public symbol in
``repro.observability.__all__`` and ``repro.faults.__all__``, every
registered event kind, metric name, fault kind and fault scenario, and
every CLI subcommand must appear in the docs.  A new event kind or
public symbol without a matching docs edit fails CI here — as does a
broken intra-repo markdown link (the CI docs job runs this module).
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro.faults as faults
import repro.observability as observability

# Importing the service package registers the `tenant` kernel event
# kind, so the kernel-taxonomy checks below see the full registry.
import repro.service as service
from repro.__main__ import SUBCOMMANDS
from repro.experiments.parallel import SWEEPS
from repro.faults import FAULT_KINDS, SCENARIOS
from repro.observability import (
    EVENT_KINDS,
    METRIC_NAMES,
    PROFILE_SPANS,
    QUANTITIES,
    RECORD_SCHEMA,
)
from repro.workflow.triggers import TRIGGER_POLICIES

REPO = Path(__file__).resolve().parent.parent
OBSERVABILITY_DOC = REPO / "docs" / "observability.md"
PERFORMANCE_DOC = REPO / "docs" / "performance.md"
FAULTS_DOC = REPO / "docs" / "faults.md"
TRIGGERS_DOC = REPO / "docs" / "triggers.md"
PROFILING_DOC = REPO / "docs" / "profiling.md"
SERVICE_DOC = REPO / "docs" / "service.md"


@pytest.fixture(scope="module")
def observability_doc() -> str:
    assert OBSERVABILITY_DOC.exists(), "docs/observability.md is missing"
    return OBSERVABILITY_DOC.read_text()


@pytest.fixture(scope="module")
def all_docs() -> str:
    texts = [(REPO / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((REPO / "docs").glob("*.md"))]
    return "\n".join(texts)


class TestObservabilityDocs:
    def test_every_public_symbol_documented(self, observability_doc):
        missing = [name for name in observability.__all__
                   if name not in observability_doc]
        assert not missing, f"undocumented observability symbols: {missing}"

    def test_every_event_kind_documented(self, observability_doc):
        missing = [kind for kind in EVENT_KINDS
                   if f"`{kind}`" not in observability_doc]
        assert not missing, f"undocumented event kinds: {missing}"

    def test_every_metric_name_documented(self, observability_doc):
        missing = [name for name in METRIC_NAMES
                   if f"`{name}`" not in observability_doc]
        assert not missing, f"undocumented metric names: {missing}"

    def test_every_quantity_documented(self, observability_doc):
        missing = [name for name in QUANTITIES
                   if f"`{name}`" not in observability_doc]
        assert not missing, f"undocumented ledger quantities: {missing}"

    def test_snapshot_schema_documented(self, observability_doc):
        """The schema of the run record, a run's JSON snapshot."""
        assert RECORD_SCHEMA in observability_doc, (
            f"run record schema string {RECORD_SCHEMA!r} must appear in "
            "docs/observability.md"
        )


class TestCliDocs:
    def test_every_subcommand_documented(self, all_docs):
        missing = [name for name in SUBCOMMANDS
                   if f"repro {name}" not in all_docs]
        assert not missing, f"undocumented CLI subcommands: {missing}"

    def test_every_experiment_listed_in_docs(self, all_docs):
        missing = [name for name in SWEEPS if name not in all_docs]
        assert not missing, f"undocumented experiments: {missing}"

    def test_every_experiment_module_in_package_docs(self):
        # repro.experiments' module table and __all__ name every module
        # the CLI runs.
        import repro.experiments as experiments

        modules = [spec.module.rpartition(".")[2] for spec in SWEEPS.values()]
        missing = [module for module in modules
                   if module not in experiments.__all__
                   or f"``{module}``" not in experiments.__doc__]
        assert not missing, f"missing from repro.experiments: {missing}"


class TestPerformanceDocs:
    @pytest.fixture(scope="class")
    def performance_doc(self) -> str:
        assert PERFORMANCE_DOC.exists(), "docs/performance.md is missing"
        return PERFORMANCE_DOC.read_text()

    def test_cache_env_vars_documented(self, performance_doc):
        assert "REPRO_NO_CACHE" in performance_doc

    def test_cache_public_api_documented(self, performance_doc):
        import repro.experiments.cache as cache

        api_doc = (REPO / "docs" / "api.md").read_text()
        missing = [name for name in cache.__all__
                   if name not in api_doc and name not in performance_doc]
        assert not missing, f"cache symbols missing from docs: {missing}"

    def test_perfbench_usage_shown(self, performance_doc):
        assert "perfbench/run.py" in performance_doc
        assert "tests/paper" in performance_doc

    def test_no_cache_semantics_documented(self, performance_doc):
        # The strict REPRO_NO_CACHE parse must be documented: the
        # disabling words and the fact that unrecognized values warn.
        for token in ("true", "yes", "false", "no"):
            assert token in performance_doc, (
                f"REPRO_NO_CACHE value {token!r} missing from "
                "docs/performance.md"
            )
        assert "warns once" in performance_doc

    def test_run_all_sweep_documented(self, performance_doc):
        assert "repro run-all" in performance_doc
        assert "--jobs" in performance_doc
        assert "--only" in performance_doc
        assert "parallel-smoke" in performance_doc

    def test_parallel_public_api_documented(self):
        import repro.experiments.parallel as parallel

        api_doc = (REPO / "docs" / "api.md").read_text()
        performance_doc = PERFORMANCE_DOC.read_text()
        missing = [name for name in parallel.__all__
                   if name not in api_doc and name not in performance_doc]
        assert not missing, f"parallel symbols missing from docs: {missing}"

    def test_linked_from_architecture(self):
        text = (REPO / "docs" / "architecture.md").read_text()
        assert "performance.md" in text
        assert "repro.experiments.cache" in text


class TestFaultDocs:
    @pytest.fixture(scope="class")
    def faults_doc(self) -> str:
        assert FAULTS_DOC.exists(), "docs/faults.md is missing"
        return FAULTS_DOC.read_text()

    def test_every_fault_kind_documented(self, faults_doc):
        missing = [kind for kind in FAULT_KINDS
                   if f"`{kind}`" not in faults_doc]
        assert not missing, f"undocumented fault kinds: {missing}"

    def test_every_public_symbol_documented(self, faults_doc):
        missing = [name for name in faults.__all__ if name not in faults_doc]
        assert not missing, f"undocumented fault symbols: {missing}"

    def test_every_scenario_documented(self, faults_doc):
        missing = [name for name in SCENARIOS
                   if f"`{name}`" not in faults_doc]
        assert not missing, f"undocumented fault scenarios: {missing}"

    def test_fault_event_kinds_and_metrics_documented(self, observability_doc):
        for name in ("fault.injected", "fault.cleared", "staging.retry",
                     "staging.job_abort", "placement.fallback",
                     "faults.injected", "staging.retries",
                     "placement.fallbacks"):
            assert f"`{name}`" in observability_doc, (
                f"{name} missing from docs/observability.md"
            )

    def test_linked_from_readme_and_architecture(self):
        assert "faults.md" in (REPO / "README.md").read_text()
        assert "faults.md" in (REPO / "docs" / "architecture.md").read_text()


class TestProfilingDocs:
    @pytest.fixture(scope="class")
    def profiling_doc(self) -> str:
        assert PROFILING_DOC.exists(), "docs/profiling.md is missing"
        return PROFILING_DOC.read_text()

    def test_every_registered_span_documented(self, profiling_doc):
        missing = [name for name in PROFILE_SPANS
                   if f"`{name}`" not in profiling_doc]
        assert not missing, f"undocumented profile spans: {missing}"

    def test_every_registered_span_has_description(self):
        empty = [name for name, description in PROFILE_SPANS.items()
                 if not description.strip()]
        assert not empty, f"profile spans without a description: {empty}"

    def test_profile_cli_and_bench_enforcement_documented(
            self, profiling_doc):
        assert "repro profile" in profiling_doc
        assert "bench_profile.py" in profiling_doc
        assert "BASELINE" in profiling_doc and "MARGIN" in profiling_doc

    def test_budget_table_matches_bench_constants(self, profiling_doc):
        bench = _bench_profile()
        assert f"`MARGIN = {bench.MARGIN}`" in profiling_doc
        for span, base in bench.BASELINE.items():
            row = (f"| `{span}` | {base:.2f} | "
                   f"{bench.MARGIN * base:.2f} |")
            assert row in profiling_doc, f"stale budget row for {span}"

    def test_replay_count_matches_bench(self, profiling_doc):
        bench = _bench_profile()
        assert f"{bench._BUDGET_REPEATS} replays" in profiling_doc

    def test_linked_from_readme_and_architecture(self):
        assert "profiling.md" in (REPO / "README.md").read_text()
        assert "profiling.md" in (REPO / "docs" / "architecture.md").read_text()


def _bench_profile():
    """``benchmarks/bench_profile.py``, whose constants the docs quote."""
    path = REPO / "benchmarks" / "bench_profile.py"
    spec = importlib.util.spec_from_file_location("bench_profile_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGasOrderDocs:
    """``order=2`` is second order in space only; each place that
    describes the gas solver says so and names the test measuring it."""

    @pytest.mark.parametrize("path", [
        "src/repro/amr/godunov.py", "DESIGN.md", "docs/architecture.md",
    ])
    def test_space_only_order_stated(self, path):
        text = " ".join((REPO / path).read_text().split())
        assert "order=2" in text
        assert "is second order in space only" in text
        assert "TestGasOrder" in text
        assert "PolytropicGas is second order in time" in text


class TestTriggerDocs:
    @pytest.fixture(scope="class")
    def triggers_doc(self) -> str:
        assert TRIGGERS_DOC.exists(), "docs/triggers.md is missing"
        return TRIGGERS_DOC.read_text()

    def test_every_policy_documented(self, triggers_doc):
        missing = [name for name in TRIGGER_POLICIES
                   if f"`{name}`" not in triggers_doc]
        assert not missing, f"undocumented trigger policies: {missing}"

    def test_every_registered_policy_has_description(self):
        empty = [name for name, (description, _factory)
                 in TRIGGER_POLICIES.items() if not description.strip()]
        assert not empty, f"trigger policies without a description: {empty}"

    def test_every_public_symbol_documented(self, triggers_doc):
        public = [
            "TriggerPolicy", "TriggerIndicators", "TriggerDecision",
            "CalibrationFeedback", "FixedInterval", "EntropyPercentile",
            "Imbalance", "StagingPressure", "TRIGGER_POLICIES",
            "build_trigger", "percentile_sample_size",
        ]
        import repro.workflow as workflow

        unexported = [name for name in public
                      if name not in workflow.__all__]
        assert not unexported, f"trigger symbols not exported: {unexported}"
        missing = [name for name in public if name not in triggers_doc]
        assert not missing, f"undocumented trigger symbols: {missing}"

    def test_trigger_event_kinds_and_metrics_documented(
            self, observability_doc):
        for name in ("trigger.fired", "trigger.suppressed",
                     "trigger.recalibrated", "monitor.trigger_fires",
                     "monitor.samples_taken",
                     "monitor.sampling_budget_used"):
            assert f"`{name}`" in observability_doc, (
                f"{name} missing from docs/observability.md"
            )

    def test_sampling_budget_math_documented(self, triggers_doc):
        # The bounded-budget worked example: both canonical sample sizes
        # and the Hoeffding formula itself must appear.
        assert "percentile_sample_size" in triggers_doc
        assert "185" in triggers_doc
        assert "82" in triggers_doc
        assert "ln(2/δ)" in triggers_doc

    def test_linked_from_readme_and_architecture(self):
        assert "triggers.md" in (REPO / "README.md").read_text()
        assert "triggers.md" in (REPO / "docs" / "architecture.md").read_text()

    def test_sweep_cli_documented(self, triggers_doc):
        assert "repro triggers" in triggers_doc
        assert "fig_triggers" in triggers_doc


class TestPaperClaimDocs:
    """DESIGN.md's reproduction table and the claim suite stay in step."""

    def test_every_figure_row_names_a_claim_test(self):
        rows = [line for line in (REPO / "DESIGN.md").read_text().splitlines()
                if re.match(r"\| (Fig\.|Table) ", line)]
        assert rows, "DESIGN.md has no Fig./Table rows"
        problems = []
        for row in rows:
            named = re.findall(r"`(tests/paper/test_\w+\.py)`", row)
            if not named:
                problems.append(f"no tests/paper file named: {row[:40]}")
            for rel in named:
                path = REPO / rel
                if not path.exists():
                    problems.append(f"{rel} does not exist")
                elif not re.search(r"^def test_", path.read_text(), re.M):
                    problems.append(f"{rel} holds no test")
        assert not problems, problems


def _markdown_links(text: str):
    """Every ``[label](target)`` in ``text``, skipping fenced code blocks."""
    out = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        out.extend(re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", line))
    return out


class TestDocLinks:
    """No intra-repo markdown link may dangle (the CI docs job's teeth)."""

    def _doc_files(self):
        return sorted((REPO).glob("*.md")) + sorted((REPO / "docs").glob("*.md"))

    def test_relative_links_resolve(self):
        broken = []
        for doc in self._doc_files():
            for target in _markdown_links(doc.read_text()):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (doc.parent / path).resolve()
                if not resolved.exists():
                    broken.append(f"{doc.relative_to(REPO)} -> {target}")
        assert not broken, f"broken intra-repo markdown links: {broken}"

    def test_anchored_doc_links_point_at_real_headings(self):
        """For ``page.md#anchor`` links, the anchor must match a heading
        slug in the target page (GitHub's slug rules, simplified)."""

        def slugify(heading: str) -> str:
            slug = re.sub(r"[`*]", "", heading.strip().lower())
            slug = re.sub(r"[^\w\- ]", "", slug)
            return slug.replace(" ", "-")

        broken = []
        for doc in self._doc_files():
            for target in _markdown_links(doc.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                if "#" not in target:
                    continue
                path, anchor = target.split("#", 1)
                dest = doc if not path else (doc.parent / path).resolve()
                if not dest.exists() or dest.suffix != ".md":
                    continue
                headings = [
                    slugify(line.lstrip("#"))
                    for line in dest.read_text().splitlines()
                    if line.startswith("#")
                ]
                if slugify(anchor) not in headings:
                    broken.append(f"{doc.relative_to(REPO)} -> {target}")
        assert not broken, f"dangling markdown anchors: {broken}"


class TestKernelDocs:
    @pytest.fixture(scope="class")
    def kernel_doc(self) -> str:
        path = REPO / "docs" / "kernel.md"
        assert path.exists(), "docs/kernel.md is missing"
        return path.read_text()

    def test_every_event_kind_documented(self, kernel_doc):
        from repro.hpc.kernel import KERNEL_EVENT_KINDS

        missing = [name for name in KERNEL_EVENT_KINDS
                   if f"`{name}`" not in kernel_doc]
        assert not missing, f"undocumented kernel event kinds: {missing}"

    def test_every_event_kind_has_description(self):
        from repro.hpc.kernel import KERNEL_EVENT_KINDS

        empty = [name for name, description in KERNEL_EVENT_KINDS.items()
                 if not description.strip()]
        assert not empty, f"kernel event kinds without a description: {empty}"

    def test_kind_codes_match_registry(self, kernel_doc):
        # The taxonomy table has three columns: kind, code, used for.
        from repro.hpc.kernel import KERNEL_EVENT_KINDS, event_kind_code

        rows = {}
        for line in kernel_doc.splitlines():
            match = re.fullmatch(r"\| `(\w+)` \| (\d+) \| [^|]+ \|", line)
            if match:
                rows[match.group(1)] = int(match.group(2))
        assert rows == {name: event_kind_code(name)
                        for name in KERNEL_EVENT_KINDS}

    def test_kernel_metric_documented(self, kernel_doc, observability_doc):
        assert "kernel.events_processed" in METRIC_NAMES
        assert "`kernel.events_processed`" in kernel_doc
        assert "`kernel.events_processed`" in observability_doc

    def test_public_kernel_symbols_documented(self, kernel_doc):
        for symbol in ("EventKernel", "KernelCounters", "KERNEL_EVENT_KINDS",
                       "register_event_kind"):
            assert symbol in kernel_doc, (
                f"kernel symbol {symbol} missing from docs/kernel.md"
            )

    def test_linked_from_readme_and_architecture(self):
        assert "kernel.md" in (REPO / "README.md").read_text()
        assert "kernel.md" in (REPO / "docs" / "architecture.md").read_text()

    def test_no_handler_dispatch_named(self):
        # Records carry their callable and Simulator.run is the only
        # drain loop; neither docs nor code may point at the handler
        # table or the one-event dispatch that records replaced.
        stale = ("kernel.on(", "_call_payload", "dispatch_next")
        paths = sorted((REPO / "docs").rglob("*.md"))
        paths += sorted((REPO / "src").rglob("*.py"))
        hits = [f"{path.relative_to(REPO)}: {needle}"
                for path in paths for needle in stale
                if needle in path.read_text()]
        assert not hits, f"stale kernel dispatch references: {hits}"


class TestServiceDocs:
    @pytest.fixture(scope="class")
    def service_doc(self) -> str:
        assert SERVICE_DOC.exists(), "docs/service.md is missing"
        return SERVICE_DOC.read_text()

    def test_every_public_symbol_documented(self, service_doc):
        missing = [name for name in service.__all__
                   if name not in service_doc]
        assert not missing, f"undocumented service symbols: {missing}"

    def test_every_admission_policy_documented(self, service_doc):
        from repro.service import ADMISSION_POLICIES

        missing = [name for name in ADMISSION_POLICIES
                   if f"`{name}`" not in service_doc]
        assert not missing, f"undocumented admission policies: {missing}"

    def test_every_admission_policy_has_description(self):
        from repro.service import ADMISSION_POLICIES

        empty = [name for name, description in ADMISSION_POLICIES.items()
                 if not description.strip()]
        assert not empty, f"admission policies without a description: {empty}"

    def test_tenant_event_kinds_and_metrics_documented(
            self, observability_doc):
        for name in ("tenant.submitted", "tenant.queued", "tenant.admitted",
                     "tenant.rejected", "tenant.grant", "tenant.starved",
                     "tenant.completed", "service.tenants_admitted",
                     "service.queue_wait_seconds",
                     "service.staging_committed_cores",
                     "service.grant_expansions", "service.starvations"):
            assert f"`{name}`" in observability_doc, (
                f"{name} missing from docs/observability.md"
            )

    def test_tenant_kernel_kind_documented(self):
        # Importing repro.service (top of this module) registers the
        # kind; the taxonomy checks in TestKernelDocs then cover the
        # row itself.
        from repro.hpc.kernel import KERNEL_EVENT_KINDS

        assert "tenant" in KERNEL_EVENT_KINDS
        assert "`tenant`" in (REPO / "docs" / "kernel.md").read_text()

    def test_sweep_cli_documented(self, service_doc):
        assert "repro tenants" in service_doc
        assert "fig_tenants" in service_doc
        assert "--smoke" in service_doc

    def test_linked_from_readme_and_architecture(self):
        assert "service.md" in (REPO / "README.md").read_text()
        assert "service.md" in (REPO / "docs" / "architecture.md").read_text()


class TestApiDocs:
    def test_workflow_public_api_documented(self):
        import repro.workflow as workflow

        api_doc = (REPO / "docs" / "api.md").read_text()
        missing = [name for name in workflow.__all__ if name not in api_doc]
        assert not missing, f"workflow symbols missing from docs/api.md: {missing}"

    def test_every_api_table_name_resolves(self):
        """Each backticked name in a table's first column is a real attribute:
        a dotted ``repro.`` path imports, and a bare name is defined by the
        section's package or one of its modules."""
        package = None
        stale = []
        for line in (REPO / "docs" / "api.md").read_text().splitlines():
            if line.startswith("## "):
                heading = re.match(r"## `(repro[\w.]*)`", line)
                package = heading.group(1) if heading else None
                continue
            if not line.startswith("| ") or line.startswith("| name |"):
                continue
            for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
                name = token.split("(")[0].strip()
                if not _api_name_resolves(name, package):
                    stale.append(f"{package}: {name}")
        assert not stale, f"docs/api.md names nothing defines: {stale}"

    def test_architecture_diagram_names_observability(self):
        text = (REPO / "docs" / "architecture.md").read_text()
        assert "repro.observability" in text


def _api_name_resolves(name: str, package: str | None) -> bool:
    if name.startswith("repro."):
        module, _, attr = name.rpartition(".")
        try:  # an attribute of its module, or itself a module
            return (hasattr(importlib.import_module(module), attr)
                    or bool(importlib.import_module(name)))
        except ImportError:
            return False
    if package is None:
        return False
    root = importlib.import_module(package)
    modules = [root] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(getattr(root, "__path__", []),
                                          prefix=f"{package}.")
    ]
    return any(hasattr(module, name) for module in modules)
